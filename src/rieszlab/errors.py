"""Exception types shared across the library."""

__all__ = ["CenterCharged", "CenterInversion", "DegenerateNodes", "DimensionMismatch",
           "IllConditioned", "IndeterminateValue", "InvalidInput", "NodesOutsideDomain",
           "PointOutsideDomain", "ProbeSamplingFailure", "RieszLabError", "SchemaError",
           "SolverFailure", "UnresolvedLayout"]


class RieszLabError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(RieszLabError):
    """Vector or point dimensions are inconsistent with the object they index."""


class IndeterminateValue(RieszLabError):
    """A mutual energy evaluates to an undefined infinity minus infinity."""


class DegenerateNodes(RieszLabError):
    """Two nodes of a Gram node set are closer than the distinctness tolerance."""


class CenterInversion(RieszLabError):
    """Attempt to invert the center of the inversion sphere."""


class CenterCharged(RieszLabError):
    """A measure charges the center of the inversion sphere."""


class InvalidInput(RieszLabError, ValueError):
    """An argument fails a library input check: a kernel order or dimension,
    a measure's points or weights, a Gram's or a solve's shape, a tolerance,
    a charge or inversion center on the set, a measure the call cannot take,
    or a shape with no inversion image."""


class UnresolvedLayout(InvalidInput):
    """A shape, region or layout cannot be built as asked: a parameter of a
    shape or layout is not finite (or a radius not positive, a normal zero);
    a union, point cloud, region or layout has no member; a region node lies
    off its shape (also in reinterpret_region), or a region radius is
    missing or not finite and positive; a count, seed, dimension or shell
    budget is not a whole number in its range; rounding a layout far from
    the origin would move its points by more than LAYOUT_RESOLUTION of its
    radius; or a layout has too few nodes for its layers, or a generated
    region fewer than two."""


class IllConditioned(RieszLabError):
    """A Gram matrix or one of its principal blocks failed its Cholesky factorization."""


class SolverFailure(RieszLabError):
    """A nonnegative quadratic solve reached its iteration cap still infeasible."""


class ProbeSamplingFailure(RieszLabError):
    """Too few probe points could be found off the target set."""


class NodesOutsideDomain(RieszLabError):
    """A node list contains points outside the open domain D."""


class PointOutsideDomain(RieszLabError):
    """An evaluation point lies outside the open domain D."""


class SchemaError(RieszLabError):
    """A scenario document violates the schema."""
