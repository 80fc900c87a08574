"""Discrete measures, the Riesz kernel, potentials, energies, and Gram matrices.

Every minimization in this library is a quadratic form over the entries
assembled here.  The kernel is k(x, y) = |x - y|^(alpha - n) for an order
0 < alpha <= 2 in ambient dimension n >= 3; it carries no dimensional
constant, so for alpha = 2, n = 3 the unit ball has capacity exactly 1.
"""
from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegenerateNodes, DimensionMismatch, IllConditioned, IndeterminateValue

# Distinctness tolerance for node sets, relative to the bounding-box diameter.
H_MIN_FACTOR = 1e-9

# Smallest positive normal float: the floor of every relative-error denominator.
TINY = np.finfo(float).tiny

# Rows per block of the mirrored Gram assembly; the block buffer holds at
# most this many rows of the matrix.
ASSEMBLY_BLOCK_ROWS = 128

# Gram assembly splits across the usable CPUs only into parts of at least
# half the triangle of a Gram over this many nodes, so from this many on.
# Square arrays over this many nodes are also recycled (see ``_square``).
ASSEMBLY_PART_NODES = 1024

# Released square arrays kept for reuse: a Gram's and its factor's.
_KEPT_SQUARES = 2

# The released square arrays, oldest first, and the lock that guards them;
# reentrant, since a finalizer may release an array in a thread that holds it.
_released_squares: list[np.ndarray] = []
_released_lock = threading.RLock()


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
    k, zero = _kernel_rows(spec, x[None], y[None])
    return float("inf") if zero[0, 0] else float(k[0, 0])


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
    def _on_distinct_nodes(cls, points, weights, signed: bool = False) -> "DiscreteMeasure":
        """Measure on points already known to be pairwise distinct.

        Skips only the distinctness query; the shape, finiteness and sign
        checks still run.  For subsets of a node set that a Region has
        accepted, or of a measure's own support.
        """
        mu = cls.__new__(cls)
        mu._build(points, weights, signed, check_distinct=False)
        return mu

    @classmethod
    def _on_support(cls, nodes, weights) -> "DiscreteMeasure":
        """The nonzero ``weights`` on their distinct ``nodes``; signed if one is negative."""
        support = weights != 0.0
        return cls._on_distinct_nodes(
            nodes[support], weights[support], signed=bool(np.any(weights < 0.0))
        )

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
            _distinct_spacing(pts, cKDTree(pts))
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
        return DiscreteMeasure._on_distinct_nodes(self.points[m], self.weights[m])

    def negative_part(self) -> "DiscreteMeasure":
        """The (unsigned) negative part: points with negative weight, weights negated."""
        m = self.weights < 0.0
        return DiscreteMeasure._on_distinct_nodes(self.points[m], -self.weights[m])

    def scaled(self, factor: float) -> "DiscreteMeasure":
        """The measure ``factor`` times this one, on the same (distinct) support."""
        f = float(factor)
        return DiscreteMeasure._on_distinct_nodes(
            self.points, self.weights * f, signed=self.signed or f < 0
        )

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


def _h_min(points: np.ndarray) -> float:
    """Distinctness tolerance of a point set: two points closer than this are one point."""
    return H_MIN_FACTOR * _bbox_diameter(points)


def _distinct_spacing(points: np.ndarray, tree) -> tuple[np.ndarray, float]:
    """Each point's nearest-neighbor distance, and ``h_min``, of a distinct point set.

    The one owner of the distinctness rule that makes a Gram finite: two
    points closer than ``h_min`` raise DegenerateNodes.  ``tree`` is a
    KD-tree over ``points``; a single point's nearest neighbor is at
    infinity and its ``h_min`` is 0.
    """
    d_nn = tree.query(points, k=2)[0][:, 1]
    h_min = _h_min(points)
    min_nn = float(d_nn.min())
    if min_nn <= 0.0 or min_nn < h_min:
        raise DegenerateNodes(f"two nodes closer than h_min={h_min:g} (min spacing {min_nn:g})")
    return d_nn, h_min


def _as_points(points, dim: int) -> np.ndarray:
    """``points`` as a float (m, dim) array; one point becomes one row.

    The one owner of the point-dimension rule: anything else raises
    DimensionMismatch.
    """
    X = np.asarray(points, dtype=float)
    rows = X[None, :] if X.ndim == 1 else X
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionMismatch(f"points must have dimension {dim}, got shape {X.shape}")
    return rows


def _check_tolerance(name: str, value, positive: bool = False) -> None:
    """The tolerance rule's one owner: ``value`` finite and nonnegative, or positive."""
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}")


def _relative(num, den):
    """The relative-error rule's one owner: ``num`` over ``|den|``, floored at TINY."""
    return num / np.maximum(np.abs(den), TINY)


def _kernel_rows(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, tol: float = 0.0):
    """Kernel block |x - y|^(alpha - n), one C-ordered row per point of X.

    Every kernel block between two point sets is built here but the
    mirrored Gram's.  Pairs at most ``tol`` apart are powered from 1.0
    instead; returns the rows and the mask of those pairs, for the caller's rule.
    """
    rows = cdist(X, Y)
    near = rows <= tol
    np.copyto(rows, 1.0, where=near)
    np.power(rows, spec.exponent, out=rows)
    return rows, near


def _row_potentials(rows: np.ndarray, weights) -> np.ndarray:
    """Potentials of weight vectors, one column each, at the points of C-ordered kernel rows.

    The one GEMV that sums a potential at points.  A vector's support is its
    nonzero entries: when it has zeros, a C-ordered copy of its support's
    columns takes the same BLAS path as the full rows.
    """
    out = np.empty((len(rows), len(weights)))
    for j, w in enumerate(weights):
        support = w != 0.0
        if support.all():
            out[:, j] = rows @ w
        else:
            out[:, j] = np.ascontiguousarray(rows[:, support]) @ w[support]
    return out


def potential_at(spec: KernelSpec, mu: DiscreteMeasure, points) -> np.ndarray:
    """Potentials of ``mu`` at many points: (k(x, .) summed against the weights).

    The atoms are pairwise distinct, so a point sits on at most one; its
    potential there is +/-inf with a charged atom's sign (a zero weight adds 0).
    """
    X = _as_points(points, spec.dim)
    P, zero = _kernel_rows(spec, X, _as_points(mu.points, spec.dim))
    vals = _row_potentials(P, [mu.weights])[:, 0]
    i, j = np.nonzero(zero)
    w_hit = mu.weights[j]
    vals[i] = np.where(w_hit != 0.0, np.copysign(np.inf, w_hit), vals[i])
    return vals


def potential(spec: KernelSpec, mu: DiscreteMeasure, x) -> float:
    """Potential of ``mu`` at a single point (see potential_at)."""
    return float(potential_at(spec, mu, x)[0])


def cross_energy(spec: KernelSpec, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Mutual energy of two measures via the exact (unregularized) kernel.

    Intended for measures with disjoint supports; a coincidence between a
    charged node of each gives +/-inf with the usual sign rules.
    """
    P, zero = _kernel_rows(spec, _as_points(mu.points, spec.dim), _as_points(nu.points, spec.dim))
    i, j = np.nonzero(zero)
    signs = set(np.sign(mu.weights[i] * nu.weights[j])) - {0.0}
    if len(signs) > 1:
        raise IndeterminateValue("coincident nodes of both sign products")
    if signs:
        return float(signs.pop() * np.inf)
    return float(mu.weights @ _row_potentials(P, [nu.weights])[:, 0])


class GramMatrix:
    """Regularized pairwise-energy matrix over a node set.

    Off-diagonal entries are exact kernel values.  Diagonal entry i is node
    i's regularized self-interaction: a point mass has infinite
    self-energy, so ``Region.gram``, which owns the rule, puts a finite
    stand-in there.  The Cholesky factorization is computed lazily and
    cached; the matrix itself is immutable.

    The entries must be exactly symmetric, bit for bit: the factor reads
    one triangle only, through the transpose, which is the Fortran-ordered
    view LAPACK takes without a transposing copy.  Mirrored assembly
    (``_assemble_distinct``), a rewrite of the diagonal (the capped radii of
    ``Region.gram``) and the Green Gram K - (C + C^T)/2 all keep it.

    The entries of an assembled or capped Gram and every factor live in
    arrays from ``_square``, which recycles them from ASSEMBLY_PART_NODES
    nodes on: their memory is reused once the Gram, its factor and every
    view of either (a ``QPSolution``'s entries among them) are gone.
    """

    __slots__ = ("nodes", "entries", "_chol")

    CONDITION_LIMIT = 1e14  # squared pivot ratio above which a factor is not trusted

    def __init__(self, nodes: np.ndarray, entries: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (len(nodes), len(nodes)):
            raise ValueError("entries must be square with one row per node")
        nodes.setflags(write=False)
        entries.setflags(write=False)
        self.nodes = nodes
        self.entries = entries
        self._chol = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def cholesky(self):
        """Cached Cholesky factor: the library's one positive-definiteness test.

        Raises IllConditioned if the matrix is not positive definite to
        rounding, its factor is not finite, or the squared ratio of the
        factor's largest to smallest diagonal entry (a guard on the pivots,
        not a condition number) exceeds CONDITION_LIMIT; only a factor that
        passes is cached.  The entries are not scanned for infs and NaNs: a
        non-finite entry either ends the factorization at a pivot that is
        not positive or reaches the factor's diagonal.
        """
        if self._chol is None:
            # The copy is the one cho_factor would make: its transpose is
            # Fortran-ordered, so LAPACK factors it in place.
            a = _square(self.n)
            np.copyto(a, self.entries)
            chol = _factor_lower(a.T, "Gram matrix is not positive definite to rounding")
            d = np.diag(chol[0])
            if not np.isfinite(d).all():
                raise IllConditioned("Gram matrix factor is not finite")
            ratio = float((d.max() / d.min()) ** 2)
            if not ratio <= self.CONDITION_LIMIT:
                raise IllConditioned(
                    f"Gram matrix squared Cholesky pivot ratio {ratio:.3e} exceeds "
                    f"{self.CONDITION_LIMIT:.0e}"
                )
            self._chol = chol
        return self._chol

    def release_factor(self) -> None:
        """Free the cached factorization; ``cholesky`` recomputes the same one on demand."""
        self._chol = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve K w = b using the cached factorization.

        ``cholesky`` guarantees a finite factor, so only ``b`` is checked.
        """
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        return cho_solve(self.cholesky(), b, check_finite=False)

    def solve_block(self, mask: np.ndarray, rhs: np.ndarray, factors: dict) -> np.ndarray:
        """Solve K[mask, mask] x = rhs, through the cached factor when mask is full.

        A partial mask reuses its factor in the caller's dict ``factors``,
        keyed by ``mask.tobytes()``, or factors a fresh C-ordered copy of its
        principal block in place, through its Fortran-ordered transpose, and
        adds it, first dropping the oldest while over n^2 factor entries are
        held.  Call it on a matrix that passed ``cholesky``, whose blocks are finite.
        """
        if mask.all():
            return self.solve(rhs)
        key = mask.tobytes()
        if key not in factors:
            while sum(f[0].size for f in factors.values()) > self.entries.size:
                del factors[next(iter(factors))]
            block = self.entries[np.ix_(mask, mask)]
            factors[key] = _factor_lower(
                block.T, "block-pivot subproblem lost positive definiteness"
            )
        return cho_solve(factors[key], rhs, check_finite=False)


def _factor_lower(a: np.ndarray, message: str):
    """``cho_factor`` of the symmetric ``a`` from its lower triangle, in place:
    every caller passes a Fortran-ordered copy of its own.

    Raises IllConditioned with ``message`` at a pivot that is not positive.
    """
    try:
        return cho_factor(a, lower=True, overwrite_a=True, check_finite=False)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditioned(message) from exc


def _square(n: int) -> np.ndarray:
    """An uninitialized C-ordered (n, n) float array: the one source of the
    N^2 buffers of assembled and capped Grams, factors and assembly scratch.

    Below ASSEMBLY_PART_NODES nodes it is ``np.empty``.  From there on it is
    an ``np.empty`` array reused from the released ones when one has its
    size, so that a fresh Gram or factor lands on pages already mapped, not
    on pages the kernel must zero.  That owner backs one non-owning wrapper,
    ``np.frombuffer`` of a ``memoryview`` of it, and numpy gives every view of
    the array (a transpose, a slice, a factor computed in place) that
    wrapper as its base: it collapses a view's base only through ndarrays.
    A ``weakref.finalize`` on the wrapper releases the owner when the last
    view is gone, and the last _KEPT_SQUARES released are kept.  Views of the
    owner itself would hold the owner, not the wrapper, so none is handed
    out.  Assembly takes one more as the scratch of its block buffers,
    released before the factor takes it.
    """
    if n < ASSEMBLY_PART_NODES:
        return np.empty((n, n))
    owner = None
    with _released_lock:
        # The loop allocates nothing (a shape tuple would), so no collection
        # runs a finalizer between finding an array and taking it.
        for i in range(len(_released_squares)):
            if len(_released_squares[i]) == n:
                owner = _released_squares.pop(i)
                break
    if owner is None:
        owner = np.empty((n, n))
    flat = np.frombuffer(memoryview(owner))
    weakref.finalize(flat, _release_square, owner).atexit = False
    return flat.reshape(n, n)


def _release_square(owner: np.ndarray) -> None:
    with _released_lock:
        _released_squares.append(owner)
        del _released_squares[:-_KEPT_SQUARES]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _assembly_bounds(n: int) -> list[int]:
    """Row boundaries of the parts of an n-node Gram's upper triangle.

    One part per usable CPU, each of about equal area, but no part smaller
    than ASSEMBLY_PART_NODES^2 / 4 entries, half the triangle of a Gram of
    that many nodes: below it, waking a thread costs more than the part saves.
    """
    parts = max(1, min(_usable_cpus(), 2 * n * n // ASSEMBLY_PART_NODES**2))
    return [round(n * (1.0 - math.sqrt(1.0 - t / parts))) for t in range(parts + 1)]


def _assemble_rows(spec: KernelSpec, nodes: np.ndarray, D: np.ndarray,
                   start: int, stop: int, buffer: np.ndarray) -> None:
    """Fill rows start:stop of D's upper triangle, and their mirror below it.

    Block row by block row, each block computed in a contiguous view of
    ``buffer``, which holds ASSEMBLY_BLOCK_ROWS rows of the part's width.
    The distance of (a, b) and of (b, a) are the same float, so every entry
    is the one-shot cdist-and-power value and the matrix is exactly
    symmetric.  Writes no entry that another part writes.
    """
    n = len(nodes)
    for i in range(start, stop, ASSEMBLY_BLOCK_ROWS):
        j = min(i + ASSEMBLY_BLOCK_ROWS, stop)
        block = buffer[: (j - i) * (n - i)].reshape(j - i, n - i)
        cdist(nodes[i:j], nodes[i:], out=block)
        np.fill_diagonal(block, 1.0)
        np.power(block, spec.exponent, out=block)
        D[i:j, i:] = block
        D[j:, i:j] = block[:, j - i:].T


def _assemble_distinct(spec: KernelSpec, nodes: np.ndarray, diagonal) -> GramMatrix:
    """Gram matrix over a float (n, dim) array of pairwise-distinct nodes.

    Off-diagonal entries are the kernel values; ``diagonal`` holds the
    self-interactions, one scalar for every node or one entry per node, and
    is written as given.  Only the dimension is checked: the nodes and the
    self-interactions come from a Region, which owns both rules.

    The row ranges of ``_assembly_bounds`` are filled at once: the caller
    fills the first, and a thread pool of one thread per other range the
    others (cdist and the power release the GIL).  Every thread is joined
    before this returns, and a thread's exception is raised here.  Each
    entry comes from the same cdist row and power as with one part, so the
    bits do not depend on the split.
    """
    nodes = _as_points(nodes, spec.dim)
    n = len(nodes)
    D = _square(n)
    bounds = _assembly_bounds(n)
    sizes = [min(ASSEMBLY_BLOCK_ROWS, b - a) * (n - a) for a, b in zip(bounds, bounds[1:])]
    # The parts' block buffers are slices of one scratch array allocated here:
    # blocks that cdist allocated in the threads raised the peak RSS.  A
    # recycled square as the scratch maps no pages of its own.
    total = sum(sizes)
    scratch = (_square(n).reshape(-1) if n >= ASSEMBLY_PART_NODES and total <= n * n
               else np.empty(total))
    parts = [(a, b, scratch[e - s:e])
             for a, b, s, e in zip(bounds, bounds[1:], sizes, accumulate(sizes))]
    # Leaving the pool joins its threads, also when the caller's part raises.
    with ThreadPoolExecutor(max(1, len(parts) - 1)) as pool:
        extra = [pool.submit(_assemble_rows, spec, nodes, D, *part) for part in parts[1:]]
        _assemble_rows(spec, nodes, D, *parts[0])
    for future in extra:
        future.result()
    np.fill_diagonal(D, diagonal)
    return GramMatrix(nodes, D)
