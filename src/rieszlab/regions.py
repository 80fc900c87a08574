"""Closed target sets: analytic shapes, node layouts, and probe sampling.

A Region couples an analytic shape (membership predicate) with a concrete
discretization node set and the regularization radius used for its Gram
matrix.  Its constructor is the one place that works out the geometry of
the node set: one KD-tree, each node's nearest-neighbor distance, core's
coincidence check, and the default radius.  Node layouts are
deterministic: spiral (golden-angle) constructions for spheres, disks, and
balls, and an unscrambled Halton template (radical inverses in bases 2,
3 and 5; Halton 1960) for volume shells, generated in numpy.

Node generation is implemented for ambient dimension 3; explicit point
clouds work in any dimension.
"""
from __future__ import annotations

import copy
import functools
import math

import numpy as np
from scipy.spatial import cKDTree

from .core import (
    GramMatrix,
    KernelSpec,
    _as_points,
    _assemble_distinct,
    _bbox_diameter,
    _distinct_spacing,
    _h_min,
    _is_real,
    _kernel_rows,
    _require_whole,
    _square,
)
from .errors import (CenterInversion, DimensionMismatch, IllConditioned, InvalidInput,
                     ProbeSamplingFailure, UnresolvedLayout)

__all__ = ["Ball", "BallComplement", "HalfSpace", "PointCloud", "Region", "Shape", "SphereShell",
           "UnionShape", "ball_complement_region", "ball_region", "build_region", "cloud_region",
           "fibonacci_ball", "fibonacci_disk", "fibonacci_sphere", "half_space_region",
           "invert_points", "reinterpret_region", "sample_points_off", "sphere_region",
           "union_region"]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_ANGLE = 2.0 * math.pi / GOLDEN_RATIO

# Default seed for quasi-random probe sets; recorded in every check output.
PROBE_SEED = 1729

# Regularization radius for generated node sets, as a fraction of the mean
# nearest-neighbor spacing.  Calibrated on sphere layouts so that the
# discrete self-energy slightly overestimates the continuum one: the
# discretized unit-ball capacity then approaches 1 from below (0.994 at
# N=500, 0.999 at N=8000), which keeps swept-mass inequalities honest at
# solver tolerance instead of drifting a fraction of a percent above the
# source mass.
REGION_REG_FACTOR = 0.24

# Relative tolerance for surface-membership tests.
SURFACE_TOL = 1e-9

# Rounding of a layout point c + r u, and of its distance from c, in units
# of |c| + r.  Far from the origin it exceeds SURFACE_TOL x r.
LAYOUT_ROUNDING = 4.0 * np.finfo(float).eps

# Largest rounding of a layout point, as a fraction of the layout radius.
LAYOUT_RESOLUTION = 1e-6

# Probe sampling: the standoff from the nodes, in mean node spacings, and
# the number of candidate batches drawn before giving up.
PROBE_STANDOFF = 3.0
PROBE_MAX_BATCHES = 500
_NO_PROBES = "probe sampling failed to find enough points off A"

# Batches of 4 x budget Halton candidates an annulus template draws before
# giving up.  A shell r_lo <= |x| < r_hi needs about 1 / (4 p) batches, p =
# (pi / 6)(1 - (r_lo / r_hi)^3) the share of candidates in it: one at ratio
# 0.5, about 150 at 0.999 and 1600 at 0.9999.  Above a ratio of about
# 0.99992 the cap would hold under half the budget, and none is drawn.
SHELL_MAX_BATCHES = 1000

# Largest node count, probe count or shell budget.  Every float from 2**53
# up is whole, so the whole-number test of a count says nothing there, and
# below it each array a count sizes stays under numpy's maximum array size.
MAX_COUNT = 2**53


def _layout_rounding(center: np.ndarray, radius: float) -> float:
    """How far rounding can move a point c + r u of a layout, or its distance from c."""
    return LAYOUT_ROUNDING * (float(np.linalg.norm(center)) + radius)


def _layout_center(n: int, radius: float, center) -> np.ndarray:
    """The 3-d center of a layout of a whole n >= 1 points with a finite,
    positive radius, which rounding moves its points by at most LAYOUT_RESOLUTION of."""
    _require_whole("a node count", n, 1, "need at least one node", MAX_COUNT)
    if not (_is_real(radius) and math.isfinite(radius) and radius > 0.0):
        raise UnresolvedLayout(f"layout radius must be finite and positive, got {radius!r}")
    (center,) = _as_points(center, 3)
    rounding = _layout_rounding(center, radius)
    if rounding > LAYOUT_RESOLUTION * radius:
        raise UnresolvedLayout(
            f"a layout of radius {radius:g} at distance {np.linalg.norm(center):g} from the "
            f"origin rounds its points by up to {rounding:.3g}, more than {LAYOUT_RESOLUTION:g} "
            "of its radius; move the shape toward the origin or enlarge it"
        )
    return center


def fibonacci_sphere(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """n quasi-uniform points on a sphere via the golden-angle spiral."""
    center = _layout_center(n, radius, center)
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = GOLDEN_ANGLE * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    return radius * pts + center


def fibonacci_ball(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """n quasi-uniform points in a solid ball (spiral directions, cubic-root radii)."""
    center = _layout_center(n, radius, center)
    dirs = fibonacci_sphere(n)
    r = radius * ((np.arange(n, dtype=float) + 0.5) / n) ** (1.0 / 3.0)
    return r[:, None] * dirs + center


def _orthonormal_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane orthogonal to ``normal``."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(normal)))] = 1.0
    u = np.cross(normal, a)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    return u, v


def fibonacci_disk(n: int, radius: float, center, normal) -> np.ndarray:
    """n quasi-uniform points on a flat disk (sunflower layout)."""
    center = _layout_center(n, radius, center)
    (normal,) = _as_points(normal, 3)
    norm = np.linalg.norm(normal)
    if not 0.0 < norm < np.inf:
        raise UnresolvedLayout("disk normal must be finite and nonzero")
    u, v = _orthonormal_frame(normal / norm)
    i = np.arange(n, dtype=float)
    r = radius * np.sqrt((i + 0.5) / n)
    theta = GOLDEN_ANGLE * i
    return center + r[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)


def _halton(start: int, n: int) -> np.ndarray:
    """Points start, ..., start + n - 1 of the unscrambled 3-d Halton sequence.

    Each coordinate is the radical inverse of the index in base 2, 3 or 5,
    summed digit by digit from the least significant one: the float
    operations, in order, of scipy's unscrambled 3-d Halton sampler, whose
    points these are bit for bit.
    """
    out = np.zeros((n, 3))
    for j, base in enumerate((2, 3, 5)):
        q = np.arange(start, start + n, dtype=np.int64)
        col = out[:, j]
        scale = 1.0 / base
        # The indices increase, so digits remain while the last one is nonzero.
        while q[-1]:
            quotient = q // base
            col += (q - base * quotient) * scale
            scale /= base
            q = quotient
    return out


@functools.lru_cache(maxsize=32)
def _annulus_template(budget: int, frac_key: float) -> np.ndarray:
    """Deterministic Halton points in the unit annulus {frac <= |u| < 1}.

    Raises UnresolvedLayout if SHELL_MAX_BATCHES batches hold fewer than
    ``budget`` of them, and draws none if they would hold under half of it.
    """
    collected: list[np.ndarray] = []
    count = 0
    # The capped batches hold about 4 budget SHELL_MAX_BATCHES p annulus
    # points, p its share of the candidate cube: none is drawn under budget / 2.
    if 8 * SHELL_MAX_BATCHES * (math.pi / 6.0) * (1.0 - frac_key**3) >= 1.0:
        for batch in range(SHELL_MAX_BATCHES):
            X = _halton(batch * 4 * budget, 4 * budget) * 2.0 - 1.0
            r = np.linalg.norm(X, axis=1)
            X = X[(r >= frac_key) & (r < 1.0)]
            collected.append(X)
            count += len(X)
            if count >= budget:
                break
    if count < budget:
        raise UnresolvedLayout(
            f"a shell of radius ratio {frac_key!r} is too thin to lay out {budget} nodes "
            f"from {SHELL_MAX_BATCHES} batches of candidates; widen it (a smaller ratio_q)"
        )
    out = np.concatenate(collected)[:budget]
    out.setflags(write=False)
    return out


def invert_points(center, points) -> np.ndarray:
    """Map points through the inversion about ``center``; the pole itself is not allowed."""
    y = np.asarray(center, dtype=float)
    diff = _as_points(points, len(y)) - y
    r2 = np.einsum("ij,ij->i", diff, diff)
    if np.any(r2 == 0.0):
        raise CenterInversion("cannot invert the pole of the inversion")
    out = y + diff / r2[:, None]
    return out[0] if np.ndim(points) == 1 else out


class Shape:
    """Analytic descriptor of a closed set A; subclasses fill in geometry, their document's
    ``kind``, their constructor's ``fields`` in order, ``inverted`` if the catalog has an image
    and, but for a union, ``make_nodes(n, spec)``, which reads n only if ``takes_count``."""

    bounded: bool = True
    takes_count: bool = True
    kind: str
    fields: tuple[str, ...]

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def inverted(self, y) -> Shape:
        """The image of the shape under inversion about the pole ``y``."""
        raise InvalidInput(f"no inversion image for {type(self).__name__}")

    def shell_nodes(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        """Nodes of A inside the half-open annulus r_lo <= |x - y| < r_hi.

        ``budget`` sizes the layout, which the shape draws in ``_shell_layout``;
        raises UnresolvedLayout unless it is a whole number from 1 to MAX_COUNT
        and 0 <= r_lo < r_hi < inf.
        An analytic shape's ``y`` is 3-d, a cloud's has its points' width.
        """
        budget = _require_whole("budget", budget, 1, "budget must be >= 1, got {!r}", MAX_COUNT)
        if not (_is_real(r_lo) and _is_real(r_hi) and 0.0 <= r_lo < r_hi):
            raise UnresolvedLayout(
                f"a shell needs 0 <= r_lo < r_hi < inf, got r_lo={r_lo!r}, r_hi={r_hi!r}"
            )
        return self._shell_layout(y, r_lo, r_hi, budget)

    def _shell_layout(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        (y,) = _as_points(y, 3)
        tmpl = _annulus_template(budget, round(r_lo / r_hi, 12))
        X = y + r_hi * tmpl
        X = X[self.contains(X)]
        d = np.linalg.norm(X - y, axis=1)
        return X[(d >= r_lo) & (d < r_hi)]

    def characteristic_scale(self) -> float:
        raise NotImplementedError

    def domain_ball(self) -> tuple[np.ndarray, float] | None:
        """(center, radius) of a ball containing the open domain D = complement of A.

        None when D is unbounded, or when no bound is worked out for the shape.
        """
        return None

    def descriptor(self) -> dict:
        """The shape document; ``SHAPES[kind]`` called with its fields rebuilds the shape."""
        doc = {"shape": self.kind}
        for f in self.fields:
            value = getattr(self, f)
            doc[f] = [p.descriptor() for p in value] if f == "parts" else np.asarray(value).tolist()
        return doc

    def _require_dim3(self, spec: KernelSpec) -> None:
        if spec.dim != 3:
            raise DimensionMismatch(
                "node generation for analytic shapes is implemented for dim=3; "
                "use an explicit point cloud for other dimensions"
            )

    def _require_layers(self, n: int, least: int) -> None:
        """An alpha < 2 layout gives each of its layers a share of n; with
        fewer than ``least`` nodes one layer would get none."""
        too_few = f"an alpha < 2 {self.kind} layout needs n >= {least} nodes, got {{!r}}"
        _require_whole("a node count", n, least, too_few)


def _require_shapes(*shapes) -> None:
    """Raise InvalidInput unless every argument is a Shape."""
    for shape in shapes:
        if not isinstance(shape, Shape):
            raise InvalidInput(f"a shape must be a Shape, got {type(shape).__name__}")


class _Round(Shape):
    """A shape bounded by the sphere {|x - c| = r}.

    Its membership test allows a point ``_slack`` past the sphere, on top of
    SURFACE_TOL: the rounding of a layout point, so that every node of the
    shape's own layout is a member wherever the shape lies.
    """

    fields = ("center", "radius")
    inside_image: type | None = None  # the image's class for a pole inside the sphere

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius) if _is_real(radius) else math.nan
        if not (np.isfinite(self.center).all() and 0.0 < self.radius < np.inf):
            raise UnresolvedLayout("center must be finite and radius finite and positive")
        self._slack = _layout_rounding(self.center, self.radius)

    def _dist(self, points) -> np.ndarray:
        """Distance of each point from the center."""
        return np.linalg.norm(_as_points(points, len(self.center)) - self.center, axis=1)

    def inverted(self, y) -> Shape:
        """With d = c - y and k = |d|^2 - r^2, the image has center y + d/k and radius r/|k|."""
        if self.inside_image is None:
            return super().inverted(y)
        (y,) = _as_points(y, len(self.center))
        d = self.center - y
        k = float(d @ d) - self.radius**2
        if abs(k) < 1e-12 * self.radius**2:
            raise CenterInversion("the boundary sphere passes through the inversion pole")
        return (type(self) if k > 0 else self.inside_image)(y + d / k, self.radius / abs(k))

    def characteristic_scale(self) -> float:
        return self.radius


class Ball(_Round):
    """Closed solid ball {|x - c| <= r}."""

    kind = "ball"

    def contains(self, points) -> np.ndarray:
        return self._dist(points) <= self.radius * (1.0 + SURFACE_TOL) + self._slack

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        if spec.alpha == 2.0:
            # The swept/equilibrium charge concentrates on the boundary sphere.
            return fibonacci_sphere(n, self.radius, self.center)
        self._require_layers(n, 3)
        n_interior = n // 3
        n_surf = n - n_interior
        surf = fibonacci_sphere(n_surf, self.radius, self.center)
        # Keep the interior fill about one surface spacing away from the
        # boundary nodes so the Gram matrix stays positive definite.
        spacing = math.sqrt(4.0 * math.pi / n_surf)
        inner_radius = self.radius * max(0.5, 1.0 - 0.8 * spacing)
        inner = fibonacci_ball(n_interior, inner_radius, self.center)
        return np.concatenate([surf, inner])


class BallComplement(_Round):
    """Closed complement of an open ball: {|x - c| >= r}."""

    kind = "ball-complement"
    bounded = False

    def contains(self, points) -> np.ndarray:
        return self._dist(points) >= self.radius * (1.0 - SURFACE_TOL) - self._slack

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        if spec.alpha == 2.0:
            # For alpha = 2 the balayee of any measure inside the ball lives
            # exactly on the boundary sphere, so truncation costs nothing.
            return fibonacci_sphere(n, self.radius, self.center)
        # For alpha < 2 the swept measure charges the whole exterior; add
        # shells at 2, 4, 8 and 16 radii, the truncation radius, wherever
        # the center lies.  The truncation error is bounded by the kernel
        # decay |x|^(alpha - n).
        self._require_layers(n, 8)
        layers = 4
        n_surf = n - layers * (n // 8)
        parts = [fibonacci_sphere(n_surf, self.radius, self.center)]
        for j in range(1, layers + 1):
            parts.append(fibonacci_sphere(n // 8, self.radius * 2.0**j, self.center))
        return np.concatenate(parts)

    def domain_ball(self) -> tuple[np.ndarray, float]:
        return self.center, self.radius


class SphereShell(_Round):
    """The sphere surface {|x - c| = r} as a closed set."""

    kind = "sphere"

    def contains(self, points) -> np.ndarray:
        tol = SURFACE_TOL * max(self.radius, 1.0) + self._slack
        return np.abs(self._dist(points) - self.radius) <= tol

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        return fibonacci_sphere(n, self.radius, self.center)

    def _shell_layout(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        # The intersection of the sphere with an annulus around y is a band
        # in the polar angle psi at the sphere center.
        (y,) = _as_points(y, 3)
        r, c = self.radius, self.center
        d = float(np.linalg.norm(y - c))
        if d == 0.0:
            if r_lo <= r < r_hi:
                return fibonacci_sphere(budget, r, c)
            return np.zeros((0, 3))
        # |x - y|^2 = r^2 + d^2 - 2 r d cos(psi)
        cos_hi = (r * r + d * d - r_lo * r_lo) / (2.0 * r * d)
        cos_lo = (r * r + d * d - r_hi * r_hi) / (2.0 * r * d)
        cos_hi = min(cos_hi, 1.0)
        cos_lo = max(cos_lo, -1.0)
        if cos_lo >= cos_hi:
            return np.zeros((0, 3))
        axis = (y - c) / d
        u, v = _orthonormal_frame(axis)
        i = np.arange(budget, dtype=float)
        z = cos_lo + (cos_hi - cos_lo) * (i + 0.5) / budget
        theta = GOLDEN_ANGLE * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        X = c + r * (
            z[:, None] * axis
            + rho[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)
        )
        dist = np.linalg.norm(X - y, axis=1)
        return X[(dist >= r_lo) & (dist < r_hi)]


class HalfSpace(Shape):
    """Closed half-space {x : n . x >= offset} with unit normal n."""

    kind = "half-space"
    fields = ("normal", "offset")
    bounded = False

    def __init__(self, normal, offset: float):
        normal = np.array(normal, dtype=float)
        norm = np.linalg.norm(normal)
        self.offset = float(offset) if _is_real(offset) else math.nan
        if not (0.0 < norm < np.inf and np.isfinite(self.offset)):
            raise UnresolvedLayout("normal must be finite and non-zero and offset finite")
        # Normalizing can move the last bits of a unit normal (computed norm
        # within 1.5 eps of 1 in 3-d), so such a normal is kept as given: a
        # half-space rebuilt from its descriptor has the same normal.
        self.normal = normal if abs(norm - 1.0) <= 4.0 * np.finfo(float).eps else normal / norm

    def contains(self, points) -> np.ndarray:
        X = _as_points(points, len(self.normal))
        tol = SURFACE_TOL * max(1.0, abs(self.offset))
        return X @ self.normal >= self.offset - tol

    def inverted(self, y) -> Shape:
        """A ball touching the pole, or that ball's complement if the pole lies inside."""
        (y,) = _as_points(y, len(self.normal))
        delta = float(self.normal @ y) - self.offset  # the pole's height over the plane
        if abs(delta) < 1e-12 * max(1.0, abs(self.offset)):
            raise CenterInversion("the boundary plane passes through the inversion pole")
        image = Ball if delta < 0 else BallComplement
        return image(y - self.normal / (2.0 * delta), 1.0 / (2.0 * abs(delta)))

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        # The plane is truncated to a disk of this radius.
        extent = 8.0 * max(1.0, abs(self.offset))
        foot = self.offset * self.normal
        if spec.alpha == 2.0:
            return fibonacci_disk(n, extent, foot, self.normal)
        self._require_layers(n, 6)
        n_deep = n // 6
        parts = [
            fibonacci_disk(n - 2 * n_deep, extent, foot, self.normal),
            fibonacci_disk(n_deep, extent, foot + (extent / 16.0) * self.normal, self.normal),
            fibonacci_disk(n_deep, extent, foot + (extent / 4.0) * self.normal, self.normal),
        ]
        return np.concatenate(parts)

    def characteristic_scale(self) -> float:
        return max(1.0, abs(self.offset))


class UnionShape(Shape):
    """Union of component shapes."""

    kind = "union"
    fields = ("parts",)

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise UnresolvedLayout("union needs at least one part")
        _require_shapes(*parts)
        self.parts = parts
        self.bounded = all(p.bounded for p in parts)

    def contains(self, points) -> np.ndarray:
        return np.any([p.contains(points) for p in self.parts], axis=0)

    def inverted(self, y) -> Shape:
        return UnionShape([p.inverted(y) for p in self.parts])

    def counts(self, n: int) -> list[int]:
        """Each part's node count for a budget of n.  A cloud part lays out its
        own points, so it counts those; every other part gets its share of
        the rest by squared scale (surface area for spheres), which keeps
        node spacings comparable across parts, and at least 16."""
        own = [None if p.takes_count else len(p.points) for p in self.parts]
        rest = n - sum(k for k in own if k is not None)
        scales = np.array([p.characteristic_scale() ** 2 for p, k in zip(self.parts, own) if k is None])
        shares = iter(np.maximum(16, np.round(rest * (scales / scales.sum())).astype(int)).tolist())
        return [next(shares) if k is None else k for k in own]

    def _shell_layout(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        nodes = np.concatenate([p._shell_layout(y, r_lo, r_hi, budget) for p in self.parts])
        return nodes[_dedupe(nodes)]

    def characteristic_scale(self) -> float:
        return max(p.characteristic_scale() for p in self.parts)


class PointCloud(Shape):
    """An explicit finite node set treated as the closed target set."""

    kind = "cloud"
    fields = ("points",)
    takes_count = False

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True)
        if pts.ndim != 2 or len(pts) == 0:
            raise UnresolvedLayout("point cloud must be a non-empty (n, dim) array")
        pts.setflags(write=False)
        self.points = pts
        self._tree = cKDTree(pts)
        self._scale = max(_bbox_diameter(pts), 1.0)
        self._tol = SURFACE_TOL * self._scale

    def contains(self, points) -> np.ndarray:
        d, _ = self._tree.query(_as_points(points, self.points.shape[1]), k=1)
        return d <= self._tol

    def inverted(self, y) -> Shape:
        return PointCloud(invert_points(y, self.points))

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        return np.array(self.points)

    def _shell_layout(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        (y,) = _as_points(y, self.points.shape[1])
        d = np.linalg.norm(self.points - y, axis=1)
        return self.points[(d >= r_lo) & (d < r_hi)]

    def characteristic_scale(self) -> float:
        return self._scale


# kind in the shape document -> shape class
SHAPES = {c.kind: c for c in (Ball, BallComplement, SphereShell, HalfSpace, UnionShape, PointCloud)}
Ball.inside_image, BallComplement.inside_image, SphereShell.inside_image = (
    BallComplement, Ball, SphereShell)


def _dedupe(points: np.ndarray) -> np.ndarray:
    """Keep mask of the points: False for each one within h_min of an earlier one."""
    pairs = cKDTree(points).query_pairs(_h_min(points), output_type="ndarray")
    keep = np.ones(len(points), dtype=bool)
    keep[pairs.max(axis=1)] = False
    return keep


def _self_interactions(spec: KernelSpec, radius):
    """h^(alpha - n) of one radius or one per node: each distinct radius is
    raised once with Python's float power, which numpy's array power misses
    in the last bit for some radii, so a union keeps its parts' diagonals."""
    radii = np.asarray(radius)
    values, inverse = np.unique(radii, return_inverse=True) if radii.ndim else (radii.reshape(1), 0)
    return np.array([h ** spec.exponent for h in values.tolist()])[inverse]


class Region:
    """A closed set A with its discretization and the smeared-node rule: its
    Gram diagonal, and every kernel entry against a node capped at it.

    The constructor works out the geometry of the node set once.  It builds
    one KD-tree over the nodes, or takes the one a PointCloud shape holds
    over the same points, and keeps each node's nearest-neighbor distance;
    ``spacing``, the capped radii of ``gram`` and probe sampling read them,
    and ``nearest_node`` and ``on_node`` query the tree.  Two nodes closer
    than ``h_min`` raise DegenerateNodes, by ``core._distinct_spacing``.

    ``reg_radius`` is one radius for every node or one per node, and
    defaults to REGION_REG_FACTOR x the mean nearest-neighbor spacing for
    every node; a single node needs it given, and a given one must be
    finite and positive.  ``gram`` and ``self_terms`` turn radii into Gram
    entries, by ``_self_interactions``; ``kernel_rows`` caps kernel entries
    at them, and everything else reads them.
    """

    __slots__ = ("shape", "nodes", "reg_radius", "h_min", "_tree", "_d_nn", "_spacing", "_grams")

    def __init__(self, shape: Shape, nodes: np.ndarray, reg_radius=None):
        _require_shapes(shape)
        # A copy: the nodes are made read-only below, and the caller's array stays writable.
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 2 or len(nodes) == 0:
            raise UnresolvedLayout("region nodes must be a non-empty (n, dim) array")
        radius = None if reg_radius is None else np.array(reg_radius, dtype=float)
        if radius is not None and not (
            radius.shape in ((), nodes.shape[:1]) and 0.0 < radius.min() <= radius.max() < np.inf
        ):
            raise UnresolvedLayout(
                f"reg_radius must be finite and positive, one or one per node, got {reg_radius!r}"
            )
        # A point cloud whose points are the nodes contains them and already
        # holds their tree.
        own = isinstance(shape, PointCloud) and np.array_equal(nodes, shape.points)
        if not (own or bool(shape.contains(nodes).all())):
            raise UnresolvedLayout("every region node must satisfy the membership predicate")
        nodes.setflags(write=False)
        tree = shape._tree if own else cKDTree(nodes)
        d_nn, h_min = _distinct_spacing(nodes, tree)
        if len(nodes) >= 2:
            spacing = (float(d_nn.min()), float(d_nn.mean()))
        elif radius is None:
            raise UnresolvedLayout("reg_radius is required for single-node regions")
        else:
            spacing = (float(radius.min()),) * 2
        if radius is None:
            radius = REGION_REG_FACTOR * spacing[1]
        self.shape = shape
        self.nodes = nodes
        self.h_min = h_min
        # One radius for every node stays a float, which gram powers once.
        self.reg_radius = radius if np.ndim(radius) else float(radius)
        self._tree = tree
        self._d_nn = d_nn
        self._spacing = spacing
        self._grams: dict = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def spacing(self) -> tuple[float, float]:
        """(min, mean) nearest-neighbor spacing of the node set."""
        return self._spacing

    def contains(self, points) -> np.ndarray:
        return self.shape.contains(_as_points(points, self.dim))

    def nearest_node(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(distance, index) of each point's nearest node."""
        return self._tree.query(_as_points(points, self.dim), k=1)

    def on_node(self, points) -> np.ndarray:
        """Index of the node each point sits on, within ``h_min`` of it, or -1;
        the one comparison of a nearest-node distance with ``h_min``."""
        dist, index = self.nearest_node(points)
        return np.where(dist <= self.h_min, index, -1)

    def self_terms(self, spec: KernelSpec, points) -> np.ndarray:
        """Each point's Gram self-term: its node's diagonal entry when it sits
        on one, otherwise the uncapped entry of its nearest node's radius."""
        diag, on = self.gram(spec).entries.diagonal(), self.on_node(points)
        radii = np.broadcast_to(self.reg_radius, self.n_nodes)[self.nearest_node(points)[1]]
        return np.where(on >= 0, diag[on], _self_interactions(spec, radii))

    def kernel_rows(self, spec: KernelSpec, points) -> tuple[np.ndarray, np.ndarray]:
        """Kernel rows of the points against the nodes, one C-ordered row per
        point, and whether each point sits on a node, within ``h_min`` of it.

        A node stands for a smeared charge, whose potential is bounded: an
        on-node pair takes the node's Gram diagonal entry, so a measure on the
        nodes is a fixed point of sweeping, and every entry is capped at it.
        """
        diag = self.gram(spec).entries.diagonal()
        rows, near = _kernel_rows(spec, _as_points(points, self.dim), self.nodes, self.h_min)
        np.copyto(rows, diag, where=near)
        return np.minimum(rows, diag, out=rows), near.any(axis=1)

    def gram(self, spec: KernelSpec) -> GramMatrix:
        """Gram matrix over the region nodes whose ``cholesky`` succeeds.

        Cached per kernel.  Diagonal entry i is node i's self-interaction
        h_i^(alpha - n).  Node i takes its radius r_i when that Gram passes
        GramMatrix.cholesky, the one positive-definiteness test.  Otherwise
        it gets the radius h_i = min(r_i, d_i / 2), where d_i is its
        nearest-neighbor distance, so the balls B(x_i, h_i) are
        disjoint.  For alpha = 2 the capped matrix is then the Gram of
        uniform spherical shells on those balls (Newton's theorem), positive
        definite by construction; for alpha < 2 the test decides.  Raises
        IllConditioned if the capped Gram fails it too.
        """
        key = (spec.alpha, spec.dim)
        g = self._grams.get(key)
        if g is None:
            g = _assemble_distinct(spec, self.nodes, _self_interactions(spec, self.reg_radius))
            # Capped after the except block: the exception holds the failed factor.
            capped = False
            try:
                g.cholesky()
            except IllConditioned:
                capped = True
            if capped:
                # Only the diagonal changes, so the off-diagonal entries are reused.
                radii = np.minimum(self.reg_radius, 0.5 * self._d_nn)
                entries = _square(self.n_nodes)
                np.copyto(entries, g.entries)
                np.fill_diagonal(entries, _self_interactions(spec, radii))
                g = GramMatrix(self.nodes, entries)
                g.cholesky()
            self._grams[key] = g
        return g


def build_region(shape: Shape, n: int, spec: KernelSpec) -> Region:
    """Discretize a shape into a Region with the default radius of Region; a
    union joins its parts, each built at its ``counts(n)``, by ``union_region``.

    Every shape that takes a count, a union too, needs a whole 2 <= n <= MAX_COUNT
    (one node has no spacing to set a radius from); a cloud lays out its own points.
    """
    _require_shapes(shape)
    if shape.takes_count:
        n = _require_whole("a node count", n, 2, "a generated region needs n >= 2 nodes, got {!r}",
                           MAX_COUNT)
    if isinstance(shape, UnionShape):
        parts = zip(shape.parts, shape.counts(n))
        return union_region([build_region(p, c, spec) for p, c in parts])
    return Region(shape, shape.make_nodes(n, spec))


def ball_region(center, radius, n, spec) -> Region:
    return build_region(Ball(center, radius), n, spec)


def ball_complement_region(center, radius, n, spec) -> Region:
    return build_region(BallComplement(center, radius), n, spec)


def sphere_region(center, radius, n, spec) -> Region:
    return build_region(SphereShell(center, radius), n, spec)


def half_space_region(normal, offset, n, spec) -> Region:
    return build_region(HalfSpace(normal, offset), n, spec)


def cloud_region(points, spec, reg_radius=None) -> Region:
    shape = PointCloud(points)
    return Region(shape, shape.make_nodes(0, spec), reg_radius)


def union_region(parts: list[Region]) -> Region:
    """Union of regions; node order follows the part order, a node within
    ``h_min`` of an earlier one is dropped, and each node keeps its part's
    radius unless the union's Gram caps it."""
    nodes = np.concatenate([_as_points(p.nodes, parts[0].dim) for p in parts])
    radii = np.concatenate([np.broadcast_to(p.reg_radius, p.n_nodes) for p in parts])
    keep = _dedupe(nodes)
    return Region(UnionShape([p.shape for p in parts]), nodes[keep], radii[keep])


def reinterpret_region(region: Region, shape: Shape) -> Region:
    """View an existing discretization as a different shape.

    The node array with its geometry, the regularization radius, and the
    Gram cache are shared, so assembled matrices are reused.  Every node
    must satisfy the new shape's membership predicate; typical use is
    swapping between a ball, its boundary sphere, and the closed complement
    when all three are discretized by the same sphere nodes.
    """
    _require_shapes(shape)
    if not bool(shape.contains(region.nodes).all()):
        raise UnresolvedLayout("every region node must satisfy the membership predicate")
    out = copy.copy(region)
    out.shape = shape
    return out


def sample_points_off(region: Region, n: int, seed: int = PROBE_SEED) -> np.ndarray:
    """Quasi-random points off A (equivalently: in the open domain D).

    Points keep a standoff of PROBE_STANDOFF mean node spacings from the
    discretization nodes so that potentials of node-supported measures are
    meaningful there.  Deterministic for a fixed seed.  When the shape
    bounds D (``Shape.domain_ball``), a candidate farther from the draw
    center than that ball reaches is dropped on its radius alone, before
    it is built and tested: it lies in A, so the draw is unchanged.  If every
    point of the ball lies within the standoff of one node, the draw fails
    at once, as it would after its last batch.  Raises UnresolvedLayout
    unless ``n`` and ``seed`` are whole numbers of at least 0, ``n`` at most
    MAX_COUNT.
    """
    n = _require_whole("probe count", n, 0, most=MAX_COUNT)
    seed = _require_whole("probe seed", seed, 0)
    if n == 0:
        return np.empty((0, region.dim))
    rng = np.random.default_rng(seed)
    centroid = region.nodes.mean(axis=0)
    radius = float(np.linalg.norm(region.nodes - centroid, axis=1).max())
    standoff = PROBE_STANDOFF * region.spacing()[1]
    reach = np.inf
    ball = region.shape.domain_ball()
    if ball is not None:
        # A point of D lies within rho of the ball's center, so within rho + d
        # of the node nearest that center (d its distance), and within
        # rho + |center - centroid| of the draw center.  The factor 1 + 1e-6
        # covers the rounding of the candidates and of their distances.
        center, rho = ball
        if (rho + float(region.nearest_node(center)[0][0])) * (1.0 + 1e-6) < standoff:
            raise ProbeSamplingFailure(_NO_PROBES)
        reach = (rho + float(np.linalg.norm(center - centroid))) * (1.0 + 1e-6)
    out: list[np.ndarray] = []
    count = 0
    dim = region.dim
    for _ in range(PROBE_MAX_BATCHES):
        dirs = rng.normal(size=(4 * n, dim))
        radii = (2.2 * radius + 4.0 * standoff) * rng.random(4 * n) ** (1.0 / dim)
        near = radii <= reach
        # Every operation below is row by row, so dropping rows first
        # leaves the bits of the others as they were.
        dirs, radii = dirs[near], radii[near]
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        X = centroid + radii[:, None] * dirs
        X = X[~region.contains(X)]
        if len(X):
            d, _ = region.nearest_node(X)
            X = X[d >= standoff]
        if len(X):
            out.append(X)
            count += len(X)
        if count >= n:
            break
    if count < n:
        raise ProbeSamplingFailure(_NO_PROBES)
    return np.concatenate(out)[:n]
