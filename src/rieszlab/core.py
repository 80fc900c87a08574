"""Discrete measures, the Riesz kernel, potentials, energies, and Gram matrices.

Every minimization in this library is a quadratic form over the entries
assembled here.  The kernel is k(x, y) = |x - y|^(alpha - n) for an order
0 < alpha <= 2 in ambient dimension n >= 3; it carries no dimensional
constant, so for alpha = 2, n = 3 the unit ball has capacity exactly 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegenerateNodes, DimensionMismatch, IllConditioned, IndeterminateValue

# Distinctness tolerance for node sets, relative to the bounding-box diameter.
H_MIN_FACTOR = 1e-9


@dataclass(frozen=True)
class KernelSpec:
    """Riesz kernel order and ambient dimension.

    Parameters
    ----------
    alpha : float
        Kernel order, 0 < alpha <= 2.
    dim : int
        Ambient dimension, >= 3.
    """

    alpha: float
    dim: int

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0,2]")
        if int(self.dim) != self.dim or self.dim < 3:
            raise ValueError("dim must be an integer >= 3")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def exponent(self) -> float:
        """Kernel exponent alpha - n (always negative)."""
        return self.alpha - self.dim


def riesz_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) = |x - y|^(alpha - n); +inf on the diagonal x = y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise DimensionMismatch(
            f"points must have shape ({spec.dim},), got {x.shape} and {y.shape}"
        )
    d = float(np.linalg.norm(x - y))
    if d == 0.0:
        return float("inf")
    return d ** spec.exponent


class DiscreteMeasure:
    """A weighted point set standing in for a Radon measure.

    Parameters
    ----------
    points : array_like, shape (n, dim)
        Pairwise-distinct support points.
    weights : array_like, shape (n,)
        Weights; all nonnegative unless ``signed`` is true.
    signed : bool
        Whether negative weights are allowed.

    The points and weights arrays are frozen after construction.
    """

    __slots__ = ("points", "weights", "signed")

    def __init__(self, points, weights, signed: bool = False):
        self._build(points, weights, signed, check_distinct=True)

    @classmethod
    def _on_distinct_nodes(cls, points, weights) -> "DiscreteMeasure":
        """Nonnegative measure on points already known to be pairwise distinct.

        Skips only the distinctness query; the shape, finiteness and sign
        checks still run.  For subsets of a node set that a Region or
        ``assemble_gram`` has accepted.
        """
        mu = cls.__new__(cls)
        mu._build(points, weights, False, check_distinct=False)
        return mu

    def _build(self, points, weights, signed: bool, check_distinct: bool) -> None:
        pts = np.array(points, dtype=float, copy=True)
        w = np.array(weights, dtype=float, copy=True)
        if pts.ndim != 2:
            raise ValueError(
                "points must be a 2-D array; use DiscreteMeasure.empty(dim) "
                "for the zero measure"
            )
        if w.ndim != 1 or len(w) != len(pts):
            raise ValueError("weights must be 1-D with one entry per point")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("points and weights must be finite")
        if not signed and len(w) and w.min() < 0.0:
            raise ValueError("negative weight in an unsigned measure")
        if check_distinct and len(pts) >= 2:
            h_min = H_MIN_FACTOR * _bbox_diameter(pts)
            d_nn = cKDTree(pts).query(pts, k=2)[0][:, 1].min()
            if d_nn <= 0.0 or d_nn < h_min:
                raise ValueError(
                    f"support points are not pairwise distinct within h_min={h_min:g}"
                )
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "signed", bool(signed))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @classmethod
    def empty(cls, dim: int) -> "DiscreteMeasure":
        """The zero measure in R^dim."""
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def n_points(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        """Sum of weights in index order."""
        return float(np.sum(self.weights))

    def positive_part(self) -> "DiscreteMeasure":
        """Restriction to the points with strictly positive weight."""
        m = self.weights > 0.0
        return DiscreteMeasure(self.points[m], self.weights[m])

    def negative_part(self) -> "DiscreteMeasure":
        """The (unsigned) negative part: points with negative weight, weights negated."""
        m = self.weights < 0.0
        return DiscreteMeasure(self.points[m], -self.weights[m])

    def scaled(self, factor: float) -> "DiscreteMeasure":
        f = float(factor)
        return DiscreteMeasure(self.points, self.weights * f, signed=self.signed or f < 0)

    def to_json(self) -> str:
        """Serialize to the measure JSON document (exact double round-trip)."""
        doc = {
            "points": [[float(c) for c in p] for p in self.points],
            "weights": [float(w) for w in self.weights],
            "signed": self.signed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        doc = json.loads(text)
        return cls.from_json_dict(doc)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DiscreteMeasure":
        if not isinstance(doc, dict):
            raise ValueError("measure document must be a JSON object")
        unknown = set(doc) - {"points", "weights", "signed"}
        if unknown:
            raise ValueError(f"unknown measure key: {sorted(unknown)[0]!r}")
        if "points" not in doc or "weights" not in doc:
            raise ValueError("measure document needs 'points' and 'weights'")
        pts, weights = doc["points"], doc["weights"]
        for key, value in (("points", pts), ("weights", weights)):
            if not isinstance(value, list):
                raise ValueError(f"measure '{key}' must be a JSON list")
        if len(pts) != len(weights):
            raise ValueError("measure 'weights' must have one entry per point")
        if len(pts) == 0:
            return cls.empty(3)
        return cls(pts, weights, signed=bool(doc.get("signed", False)))

    def __repr__(self) -> str:
        kind = "signed" if self.signed else "positive"
        return (
            f"DiscreteMeasure({self.n_points} points in R^{self.dim}, "
            f"{kind}, mass={self.total_mass:.6g})"
        )


def dirac(point, weight: float = 1.0) -> DiscreteMeasure:
    """Point mass of the given weight."""
    return DiscreteMeasure([list(point)], [weight], signed=weight < 0)


def _bbox_diameter(points: np.ndarray) -> float:
    if len(points) == 0:
        return 0.0
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def potential_at(spec: KernelSpec, mu: DiscreteMeasure, points) -> np.ndarray:
    """Potentials of ``mu`` at many points: (k(x, .) summed against the weights).

    Points coinciding exactly with a charged node give +/-inf; coincidence
    with nodes of both signs raises IndeterminateValue.  Summation is a
    single dot product in node-index order.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != spec.dim:
        raise DimensionMismatch(f"points must have dimension {spec.dim}")
    if mu.n_points == 0:
        return np.zeros(len(X))
    if mu.dim != spec.dim:
        raise DimensionMismatch("measure dimension differs from kernel dimension")
    D = cdist(X, mu.points)
    zero = D == 0.0
    has_zero = zero.any()
    if has_zero:
        D = np.where(zero, 1.0, D)
    P = D ** spec.exponent
    if has_zero:
        P[zero] = 0.0
    vals = P @ mu.weights
    if has_zero:
        for i in np.nonzero(zero.any(axis=1))[0]:
            w_hit = mu.weights[zero[i]]
            pos = bool((w_hit > 0).any())
            neg = bool((w_hit < 0).any())
            if pos and neg:
                raise IndeterminateValue(
                    "evaluation point coincides with nodes of both signs"
                )
            if pos:
                vals[i] = np.inf
            elif neg:
                vals[i] = -np.inf
    return vals


def potential(spec: KernelSpec, mu: DiscreteMeasure, x) -> float:
    """Potential of ``mu`` at a single point (see potential_at)."""
    return float(potential_at(spec, mu, x)[0])


def cross_energy(spec: KernelSpec, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Mutual energy of two measures via the exact (unregularized) kernel.

    Intended for measures with disjoint supports; a coincidence between a
    charged node of each gives +/-inf with the usual sign rules.
    """
    if mu.n_points == 0 or nu.n_points == 0:
        return 0.0
    if mu.dim != spec.dim or nu.dim != spec.dim:
        raise DimensionMismatch("measure dimension differs from kernel dimension")
    D = cdist(mu.points, nu.points)
    zero = D == 0.0
    if zero.any():
        prods = np.outer(mu.weights, nu.weights)[zero]
        pos = bool((prods > 0).any())
        neg = bool((prods < 0).any())
        if pos and neg:
            raise IndeterminateValue("coincident nodes of both sign products")
        if pos:
            return float("inf")
        if neg:
            return float("-inf")
        D = np.where(zero, 1.0, D)
        P = D ** spec.exponent
        P[zero] = 0.0
    else:
        P = D ** spec.exponent
    return float(mu.weights @ (P @ nu.weights))


class GramMatrix:
    """Regularized pairwise-energy matrix over a node set.

    Off-diagonal entries are exact kernel values; diagonal entry i is
    h_i^(alpha - n) for the regularization radius h_i of node i (a point
    mass has infinite self-energy, so h_i stands in for the local smoothing
    scale).  ``reg_radius`` is the nominal scalar radius.  The Cholesky
    factorization is computed lazily and cached; the matrix itself is
    immutable.
    """

    __slots__ = ("nodes", "entries", "reg_radius", "_chol")

    # Condition-number estimate above which Cholesky pivots are no longer
    # trusted.
    CONDITION_LIMIT = 1e14

    def __init__(self, nodes: np.ndarray, entries: np.ndarray, reg_radius: float):
        nodes = np.asarray(nodes, dtype=float)
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (len(nodes), len(nodes)):
            raise ValueError("entries must be square with one row per node")
        nodes.setflags(write=False)
        entries.setflags(write=False)
        self.nodes = nodes
        self.entries = entries
        self.reg_radius = float(reg_radius)
        self._chol = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def cholesky(self):
        """Cached Cholesky factorization of the full matrix."""
        if self._chol is None:
            self._chol = cho_factor(self.entries, lower=True)
        return self._chol

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve K w = b using the cached factorization.

        ``cho_factor`` already checked the entries, so only ``b`` is checked.
        """
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        return cho_solve(self.cholesky(), b, check_finite=False)

    def condition_estimate(self) -> float:
        """Cheap condition estimate from the Cholesky diagonal."""
        d = np.diag(self.cholesky()[0])
        return float((d.max() / d.min()) ** 2)

    def check_condition(self) -> None:
        """Raise IllConditioned unless the matrix factors with a trusted condition."""
        try:
            cond = self.condition_estimate()
        except (LinAlgError, np.linalg.LinAlgError) as exc:
            raise IllConditioned("Gram matrix is not positive definite to rounding") from exc
        if cond > self.CONDITION_LIMIT:
            raise IllConditioned(
                f"Gram matrix condition estimate {cond:.3e} exceeds {self.CONDITION_LIMIT:.0e}"
            )


def assemble_gram(
    spec: KernelSpec, nodes, reg_radius: float | np.ndarray | None = None
) -> GramMatrix:
    """Assemble the regularized kernel matrix over a node set.

    Parameters
    ----------
    spec : KernelSpec
    nodes : array_like, shape (n, dim)
        Pairwise-distinct nodes (beyond h_min = 1e-9 x bounding-box diameter).
    reg_radius : float or array_like of shape (n,), optional
        Diagonal regularization radius h, or one radius h_i per node.
        Defaults to half the minimum nearest-neighbor spacing of the node
        set.  The nominal radius of a per-node array is its largest entry.

    Raises
    ------
    DegenerateNodes
        If two nodes are closer than h_min.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or len(nodes) == 0:
        raise ValueError("nodes must be a non-empty (n, dim) array")
    if len(nodes) >= 2:
        d_nn = cKDTree(nodes).query(nodes, k=2)[0][:, 1]
        _require_distinct(nodes, d_nn)
        if reg_radius is None:
            reg_radius = 0.5 * float(d_nn.min())
    elif reg_radius is None:
        raise ValueError("reg_radius is required for a single-node Gram matrix")
    return _assemble_distinct(spec, nodes, reg_radius)


def _require_distinct(nodes: np.ndarray, d_nn: np.ndarray) -> float:
    """h_min of a node set with nearest-neighbor distances ``d_nn``.

    Raises DegenerateNodes if two nodes are closer than h_min = H_MIN_FACTOR
    x the bounding-box diameter.
    """
    h_min = H_MIN_FACTOR * _bbox_diameter(nodes)
    min_nn = float(d_nn.min())
    if min_nn <= 0.0 or min_nn < h_min:
        raise DegenerateNodes(f"two nodes closer than h_min={h_min:g} (min spacing {min_nn:g})")
    return h_min


def _assemble_distinct(spec: KernelSpec, nodes: np.ndarray, reg_radius) -> GramMatrix:
    """``assemble_gram`` over a float (n, dim) array of nodes known to be distinct.

    Skips only the distinctness query; the dimension and radius checks still
    run.  For node sets whose coincidence check has already run, as in Region.
    """
    if nodes.shape[1] != spec.dim:
        raise DimensionMismatch(f"nodes must have dimension {spec.dim}")
    n = len(nodes)
    radii = np.asarray(reg_radius, dtype=float)
    if radii.ndim and radii.shape != (n,):
        raise ValueError("per-node reg_radius must have one entry per node")
    if not np.all(radii > 0.0):
        raise ValueError("reg_radius must be positive")
    h = float(radii.max())
    D = cdist(nodes, nodes)
    np.fill_diagonal(D, 1.0)
    np.power(D, spec.exponent, out=D)
    np.fill_diagonal(D, h ** spec.exponent if radii.ndim == 0 else radii ** spec.exponent)
    return GramMatrix(nodes, D, h)


def energy(gram: GramMatrix, mu_weights, nu_weights) -> float:
    """Quadratic/bilinear energy form mu^T K nu over the Gram node set."""
    mu_w = np.asarray(mu_weights, dtype=float)
    nu_w = np.asarray(nu_weights, dtype=float)
    if mu_w.shape != (gram.n,) or nu_w.shape != (gram.n,):
        raise DimensionMismatch(
            f"weight vectors must have length {gram.n}, "
            f"got {mu_w.shape} and {nu_w.shape}"
        )
    return float(mu_w @ (gram.entries @ nu_w))
