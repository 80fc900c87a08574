"""Exception types shared across the library."""


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


class UnresolvedLayout(RieszLabError, ValueError):
    """A node layout cannot be laid out as asked: it has no nodes, a radius
    that is not finite and positive, or a disk normal that is not finite and
    nonzero; it lies too far from the origin for its radius, so rounding its
    points would move them by more than LAYOUT_RESOLUTION of the radius; it
    has too few nodes for its layers, or a generated region fewer than two;
    or a shell layout has a budget below 1."""


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
