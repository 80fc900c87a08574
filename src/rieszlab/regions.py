"""Closed target sets: analytic shapes, node layouts, and probe sampling.

A Region couples an analytic shape (membership predicate) with a concrete
discretization node set and the regularization radius used for its Gram
matrix.  Its constructor is the one place that works out the geometry of
the node set: one KD-tree, each node's nearest-neighbor distance, the
coincidence check, and the default radius.  Node layouts are
deterministic: spiral (golden-angle) constructions for spheres, disks, and
balls, and an unscrambled Halton template for volume shells.

Node generation is implemented for ambient dimension 3; explicit point
clouds work in any dimension.
"""
from __future__ import annotations

import copy
import functools
import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .core import H_MIN_FACTOR, GramMatrix, KernelSpec, _assemble_distinct, _require_distinct
from .errors import IllConditioned, ProbeSamplingFailure

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

# Probe sampling: the standoff from the nodes, in mean node spacings, and
# the number of candidate batches drawn before giving up.
PROBE_STANDOFF = 3.0
PROBE_MAX_BATCHES = 500


def fibonacci_sphere(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """n quasi-uniform points on a sphere via the golden-angle spiral."""
    if n < 1:
        raise ValueError("need at least one node")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = GOLDEN_ANGLE * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    return radius * pts + np.asarray(center, dtype=float)


def fibonacci_ball(n: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """n quasi-uniform points in a solid ball (spiral directions, cubic-root radii)."""
    if n < 1:
        raise ValueError("need at least one node")
    i = np.arange(n, dtype=float)
    r = radius * ((i + 0.5) / n) ** (1.0 / 3.0)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = GOLDEN_ANGLE * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    return r[:, None] * dirs + np.asarray(center, dtype=float)


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
    if n < 1:
        raise ValueError("need at least one node")
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    u, v = _orthonormal_frame(normal)
    i = np.arange(n, dtype=float)
    r = radius * np.sqrt((i + 0.5) / n)
    theta = GOLDEN_ANGLE * i
    return (
        np.asarray(center, dtype=float)
        + r[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)
    )


@functools.lru_cache(maxsize=32)
def _annulus_template(budget: int, frac_key: float) -> np.ndarray:
    """Deterministic Halton points in the unit annulus {frac <= |u| < 1}."""
    sampler = qmc.Halton(d=3, scramble=False)
    collected: list[np.ndarray] = []
    count = 0
    while count < budget:
        X = sampler.random(4 * budget) * 2.0 - 1.0
        r = np.linalg.norm(X, axis=1)
        X = X[(r >= frac_key) & (r < 1.0)]
        collected.append(X)
        count += len(X)
    out = np.concatenate(collected)[:budget]
    out.setflags(write=False)
    return out


def nearest_neighbor_spacing(points: np.ndarray) -> tuple[float, float]:
    """(min, mean) nearest-neighbor distance of a point set with >= 2 points."""
    d = cKDTree(points).query(points, k=2)[0][:, 1]
    return float(d.min()), float(d.mean())


class Shape:
    """Analytic descriptor of a closed set A; subclasses fill in geometry."""

    bounded: bool = True

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        raise NotImplementedError

    def shell_nodes(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        """Nodes of A inside the half-open annulus r_lo <= |x - y| < r_hi."""
        return _volume_shell_nodes(self, y, r_lo, r_hi, budget)

    def characteristic_scale(self) -> float:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def _require_dim3(self, spec: KernelSpec) -> None:
        if spec.dim != 3:
            raise NotImplementedError(
                "node generation for analytic shapes is implemented for dim=3; "
                "use an explicit point cloud for other dimensions"
            )


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    return X


def _volume_shell_nodes(shape: Shape, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    tmpl = _annulus_template(int(budget), round(r_lo / r_hi, 12))
    X = y + r_hi * tmpl
    X = X[shape.contains(X)]
    d = np.linalg.norm(X - y, axis=1)
    return X[(d >= r_lo) & (d < r_hi)]


class Ball(Shape):
    """Closed solid ball {|x - c| <= r}."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        self.bounded = True

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        d = np.linalg.norm(X - self.center, axis=1)
        return d <= self.radius * (1.0 + SURFACE_TOL)

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        if spec.alpha == 2.0:
            # The swept/equilibrium charge concentrates on the boundary sphere.
            return fibonacci_sphere(n, self.radius, self.center)
        n_interior = n // 3
        n_surf = n - n_interior
        surf = fibonacci_sphere(n_surf, self.radius, self.center)
        # Keep the interior fill about one surface spacing away from the
        # boundary nodes so the Gram matrix stays positive definite.
        spacing = math.sqrt(4.0 * math.pi / n_surf)
        inner_radius = self.radius * max(0.5, 1.0 - 0.8 * spacing)
        inner = fibonacci_ball(n_interior, inner_radius, self.center)
        return np.concatenate([surf, inner])

    def characteristic_scale(self) -> float:
        return self.radius

    def descriptor(self) -> dict:
        return {
            "shape": "ball",
            "center": [float(c) for c in self.center],
            "radius": self.radius,
        }


class BallComplement(Shape):
    """Closed complement of an open ball: {|x - c| >= r}."""

    bounded = False

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        d = np.linalg.norm(X - self.center, axis=1)
        return d >= self.radius * (1.0 - SURFACE_TOL)

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        if spec.alpha == 2.0:
            # For alpha = 2 the balayee of any measure inside the ball lives
            # exactly on the boundary sphere, so truncation costs nothing.
            return fibonacci_sphere(n, self.radius, self.center)
        # For alpha < 2 the swept measure charges the whole exterior; add
        # geometrically growing shells out to the truncation radius.  The
        # truncation error is bounded by the kernel decay |x|^(alpha - n).
        extent = 8.0 * (float(np.linalg.norm(self.center)) + 2.0 * self.radius)
        layers = 4
        n_surf = n - layers * (n // 8)
        parts = [fibonacci_sphere(n_surf, self.radius, self.center)]
        growth = (extent / self.radius) ** (1.0 / layers)
        for j in range(1, layers + 1):
            parts.append(fibonacci_sphere(n // 8, self.radius * growth**j, self.center))
        return np.concatenate(parts)

    def characteristic_scale(self) -> float:
        return self.radius

    def descriptor(self) -> dict:
        return {
            "shape": "ball-complement",
            "center": [float(c) for c in self.center],
            "radius": self.radius,
        }


class SphereShell(Shape):
    """The sphere surface {|x - c| = r} as a closed set."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        self.bounded = True

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        d = np.linalg.norm(X - self.center, axis=1)
        return np.abs(d - self.radius) <= SURFACE_TOL * max(self.radius, 1.0)

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        return fibonacci_sphere(n, self.radius, self.center)

    def shell_nodes(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        # The intersection of the sphere with an annulus around y is a band
        # in the polar angle psi at the sphere center.
        y = np.asarray(y, dtype=float)
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

    def characteristic_scale(self) -> float:
        return self.radius

    def descriptor(self) -> dict:
        return {
            "shape": "sphere",
            "center": [float(c) for c in self.center],
            "radius": self.radius,
        }


class HalfSpace(Shape):
    """Closed half-space {x : n . x >= offset} with unit normal n."""

    bounded = False

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(normal)
        if norm == 0.0:
            raise ValueError("normal must be non-zero")
        self.normal = normal / norm
        self.offset = float(offset)

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        tol = SURFACE_TOL * max(1.0, abs(self.offset))
        return X @ self.normal >= self.offset - tol

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        self._require_dim3(spec)
        # The plane is truncated to a disk of this radius.
        extent = 8.0 * max(1.0, abs(self.offset))
        foot = self.offset * self.normal
        if spec.alpha == 2.0:
            return fibonacci_disk(n, extent, foot, self.normal)
        n_deep = n // 6
        parts = [
            fibonacci_disk(n - 2 * n_deep, extent, foot, self.normal),
            fibonacci_disk(n_deep, extent, foot + (extent / 16.0) * self.normal, self.normal),
            fibonacci_disk(n_deep, extent, foot + (extent / 4.0) * self.normal, self.normal),
        ]
        return np.concatenate(parts)

    def characteristic_scale(self) -> float:
        return max(1.0, abs(self.offset))

    def descriptor(self) -> dict:
        return {
            "shape": "half-space",
            "normal": [float(c) for c in self.normal],
            "offset": self.offset,
        }


class UnionShape(Shape):
    """Union of component shapes."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("union needs at least one part")
        self.parts = parts
        self.bounded = all(p.bounded for p in parts)

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        mask = np.zeros(len(X), dtype=bool)
        for p in self.parts:
            mask |= p.contains(X)
        return mask

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        # Budget split proportional to squared scale (surface area for
        # spheres), which keeps node spacings comparable across parts so a
        # single Gram regularization radius fits all of them.
        scales = np.array([p.characteristic_scale() ** 2 for p in self.parts])
        weights = scales / scales.sum()
        counts = np.maximum(16, np.round(n * weights).astype(int))
        parts = [p.make_nodes(int(c), spec) for p, c in zip(self.parts, counts)]
        return _dedupe(np.concatenate(parts))

    def shell_nodes(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        parts = [p.shell_nodes(y, r_lo, r_hi, budget) for p in self.parts]
        X = np.concatenate([p for p in parts if len(p)]) if any(len(p) for p in parts) else np.zeros((0, 3))
        return _dedupe(X)

    def characteristic_scale(self) -> float:
        return max(p.characteristic_scale() for p in self.parts)

    def descriptor(self) -> dict:
        return {"shape": "union", "parts": [p.descriptor() for p in self.parts]}


class PointCloud(Shape):
    """An explicit finite node set treated as the closed target set."""

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("point cloud must be a non-empty (n, dim) array")
        pts.setflags(write=False)
        self.points = pts
        self.bounded = True
        self._tree = cKDTree(pts)
        diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        self._tol = SURFACE_TOL * max(diam, 1.0)

    def contains(self, points) -> np.ndarray:
        X = _as_points(points)
        d, _ = self._tree.query(X, k=1)
        return d <= self._tol

    def make_nodes(self, n: int, spec: KernelSpec) -> np.ndarray:
        return np.array(self.points)

    def shell_nodes(self, y, r_lo: float, r_hi: float, budget: int) -> np.ndarray:
        d = np.linalg.norm(self.points - np.asarray(y, dtype=float), axis=1)
        return self.points[(d >= r_lo) & (d < r_hi)]

    def characteristic_scale(self) -> float:
        diam = float(
            np.linalg.norm(self.points.max(axis=0) - self.points.min(axis=0))
        )
        return max(diam, 1.0)

    def descriptor(self) -> dict:
        return {
            "shape": "cloud",
            "points": [[float(c) for c in p] for p in self.points],
        }


def _dedupe(points: np.ndarray) -> np.ndarray:
    """Drop later points that collide with earlier ones within h_min."""
    if len(points) < 2:
        return points
    diam = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    tol = H_MIN_FACTOR * diam
    if tol == 0.0:
        return points[:1]
    pairs = cKDTree(points).query_pairs(tol, output_type="ndarray")
    if len(pairs) == 0:
        return points
    drop = np.zeros(len(points), dtype=bool)
    drop[pairs.max(axis=1)] = True
    return points[~drop]


class Region:
    """A closed set A with its discretization and Gram regularization radius.

    The constructor works out the geometry of the node set once.  It builds
    one KD-tree over the nodes and keeps each node's nearest-neighbor
    distance; ``spacing``, the capped radii of ``gram`` and probe sampling
    read them.  Two nodes closer than ``h_min`` (H_MIN_FACTOR x the
    bounding-box diameter) raise DegenerateNodes.  ``reg_radius`` defaults
    to REGION_REG_FACTOR x the mean nearest-neighbor spacing; a single node
    needs it given.
    """

    __slots__ = ("shape", "nodes", "reg_radius", "h_min", "_tree", "_d_nn", "_spacing", "_grams")

    def __init__(self, shape: Shape, nodes: np.ndarray, reg_radius: float | None = None):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or len(nodes) == 0:
            raise ValueError("region nodes must be a non-empty (n, dim) array")
        if not bool(shape.contains(nodes).all()):
            raise ValueError("every region node must satisfy the membership predicate")
        nodes.setflags(write=False)
        tree = cKDTree(nodes)
        # A single node's nearest neighbor is at infinity.
        d_nn = tree.query(nodes, k=2)[0][:, 1]
        # Nodes closer than h_min count as coincident; 0 for a single node.
        self.h_min = _require_distinct(nodes, d_nn)
        if len(nodes) >= 2:
            spacing = (float(d_nn.min()), float(d_nn.mean()))
        elif reg_radius is None:
            raise ValueError("reg_radius is required for single-node regions")
        else:
            spacing = (float(reg_radius), float(reg_radius))
        self.shape = shape
        self.nodes = nodes
        self.reg_radius = float(REGION_REG_FACTOR * spacing[1] if reg_radius is None else reg_radius)
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
        return self.shape.contains(points)

    def gram(self, spec: KernelSpec) -> GramMatrix:
        """Gram matrix over the region nodes that passes GramMatrix.check_condition.

        Cached per kernel.  Every diagonal entry uses the region's radius h
        when that Gram passes the check.  Otherwise node i gets the radius
        h_i = min(h, d_i / 2), where d_i is its nearest-neighbor distance, so
        the balls B(x_i, h_i) are disjoint.  For alpha = 2 the capped matrix
        is then the Gram of uniform spherical shells on those balls (Newton's
        theorem), positive definite by construction; for alpha < 2 the check
        decides.  Raises IllConditioned if the capped Gram fails it too.
        """
        key = (spec.alpha, spec.dim)
        g = self._grams.get(key)
        if g is None:
            g = _assemble_distinct(spec, self.nodes, self.reg_radius)
            try:
                g.check_condition()
            except IllConditioned:
                g = _assemble_distinct(spec, self.nodes, np.minimum(self.reg_radius, 0.5 * self._d_nn))
                g.check_condition()
            self._grams[key] = g
        return g


def build_region(
    shape: Shape,
    n: int,
    spec: KernelSpec,
    reg_radius: float | None = None,
) -> Region:
    """Discretize a shape into a Region; ``reg_radius`` defaults as in Region."""
    return Region(shape, shape.make_nodes(n, spec), reg_radius)


def ball_region(center, radius, n, spec, **kw) -> Region:
    return build_region(Ball(center, radius), n, spec, **kw)


def ball_complement_region(center, radius, n, spec, **kw) -> Region:
    return build_region(BallComplement(center, radius), n, spec, **kw)


def sphere_region(center, radius, n, spec, **kw) -> Region:
    return build_region(SphereShell(center, radius), n, spec, **kw)


def half_space_region(normal, offset, n, spec, **kw) -> Region:
    return build_region(HalfSpace(normal, offset), n, spec, **kw)


def cloud_region(points, spec, reg_radius: float | None = None) -> Region:
    shape = PointCloud(points)
    return Region(shape, shape.make_nodes(0, spec), reg_radius)


def union_region(parts: list[Region], reg_radius: float | None = None) -> Region:
    """Union of prebuilt regions; node order follows the part order."""
    shape = UnionShape([p.shape for p in parts])
    return Region(shape, _dedupe(np.concatenate([p.nodes for p in parts])), reg_radius)


def reinterpret_region(region: Region, shape: Shape) -> Region:
    """View an existing discretization as a different shape.

    The node array with its geometry, the regularization radius, and the
    Gram cache are shared, so assembled matrices are reused.  Every node
    must satisfy the new shape's membership predicate; typical use is
    swapping between a ball, its boundary sphere, and the closed complement
    when all three are discretized by the same sphere nodes.
    """
    if not bool(shape.contains(region.nodes).all()):
        raise ValueError("every region node must satisfy the membership predicate")
    out = copy.copy(region)
    out.shape = shape
    return out


def sample_points_off(region: Region, n: int, seed: int = PROBE_SEED) -> np.ndarray:
    """Quasi-random points off A (equivalently: in the open domain D).

    Points keep a standoff of PROBE_STANDOFF mean node spacings from the
    discretization nodes so that potentials of node-supported measures are
    meaningful there.  Deterministic for a fixed seed.
    """
    if n <= 0:
        return np.empty((0, region.dim))
    rng = np.random.default_rng(seed)
    centroid = region.nodes.mean(axis=0)
    radius = float(np.linalg.norm(region.nodes - centroid, axis=1).max())
    standoff = PROBE_STANDOFF * region.spacing()[1]
    out: list[np.ndarray] = []
    count = 0
    dim = region.dim
    for _ in range(PROBE_MAX_BATCHES):
        dirs = rng.normal(size=(4 * n, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = (2.2 * radius + 4.0 * standoff) * rng.random(4 * n) ** (1.0 / dim)
        X = centroid + radii[:, None] * dirs
        keep = ~region.contains(X)
        X = X[keep]
        if len(X):
            d, _ = region._tree.query(X, k=1)
            X = X[d >= standoff]
        if len(X):
            out.append(X)
            count += len(X)
        if count >= n:
            break
    if count < n:
        raise ProbeSamplingFailure("probe sampling failed to find enough points off A")
    return np.concatenate(out)[:n]
