"""Quadratic programs on the nonnegative orthant over kernel Gram matrices.

For a symmetric positive definite Gram matrix K, solve_nonneg[_many]
minimizes  q(w) = w'Kw - 2 b'w  over w >= 0 by block principal pivoting,
a finite method driven by Cholesky solves.  Balayage solves one such
problem per source, and the equilibrium measure is the case b = 1
(Gauss's problem).  A Gram that fails GramMatrix.cholesky, the one
positive-definiteness test, raises IllConditioned; Region.gram caps its
regularization so that region Grams pass.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar

import numpy as np

from .core import GramMatrix

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QPSolution:
    """Outcome of a quadratic minimization over the nonnegative orthant.

    ``method`` is always ``"block-pivot"``.  ``objective`` and
    ``kkt_residual`` are diagnostics.  Convergence is decided on
    infeasibility counts alone, so both are computed on the first read of
    either, with one product ``K @ w``, and cached; until then the solution
    holds a reference to the Gram entries K (not a copy) and to b.
    ``weights`` is read-only, so a pending diagnostic always sees the w it
    belongs to.
    """

    method: ClassVar[str] = "block-pivot"

    weights: np.ndarray
    iterations: int
    converged: bool
    _diagnostics: Callable[[], tuple[float, float]] = field(repr=False, compare=False)

    def __post_init__(self):
        self.weights.setflags(write=False)

    @cached_property
    def _diagnostic_values(self) -> tuple[float, float]:
        return self._diagnostics()

    @property
    def objective(self) -> float:
        return self._diagnostic_values[0]

    @property
    def kkt_residual(self) -> float:
        return self._diagnostic_values[1]


def _objective(Kw: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    return float(w @ Kw - 2.0 * (b @ w))


def _nonneg_kkt_residual(Kw, b, w) -> float:
    g = 2.0 * (Kw - b)
    dual = float(np.max(-g, initial=0.0))
    comp = float(np.max(np.abs(w * g) / (1.0 + np.abs(w)), initial=0.0))
    return max(dual, comp, 0.0)


def _nonneg_diagnostics(K, b, w) -> tuple[float, float]:
    """(objective, KKT residual) of a nonnegative-orthant solution w."""
    Kw = K @ w
    return _objective(Kw, b, w), _nonneg_kkt_residual(Kw, b, w)


def solve_nonneg(
    gram: GramMatrix,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> QPSolution:
    """Minimize w'Kw - 2 b'w over w >= 0 (the one-column case of solve_nonneg_many)."""
    b = np.asarray(b, dtype=float)
    return solve_nonneg_many(gram, b[:, None], tol, max_iter)[0]


def solve_nonneg_many(
    gram: GramMatrix,
    B,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> list[QPSolution]:
    """Minimize w'Kw - 2 b'w over w >= 0 for every column b of ``B``.

    Uses block principal pivoting: the full free set is tried first, for
    all columns in one solve through the cached Cholesky factor.  One test
    of that solve settles, in one iteration, every column whose
    unconstrained solution is nonnegative to tolerance; only the other
    columns enter the pivoting loop.  When blocks stop making progress the
    exchange degrades to single least-index swaps, which terminates
    finitely.  Convergence is declared when no free weight and no gradient
    entry of a zero weight lies below ``-tol * max(|b|_inf, tiny)``.
    Columns are solved in order, and the list ends at the first one that
    does not converge.
    Raises ValueError unless ``tol`` is finite and positive, and
    IllConditioned if the Gram matrix fails ``GramMatrix.cholesky``.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    K = gram.entries
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or K.shape != (len(B), len(B)):
        raise ValueError("b length must match the Gram matrix size")
    n, k = B.shape
    if max_iter is None:
        max_iter = 50 * n
    tol_eff = tol * np.maximum(np.max(np.abs(B), axis=0, initial=0.0), TINY)
    # Contiguous columns.  The solve equals one-column solves to rounding, and
    # bitwise below 12 columns; with one BLAS thread some sizes differ above.
    B = np.asfortranarray(B)

    W = gram.solve(B)
    # Every column's first pass at once: a column with no weight below
    # -tol_eff converges on the full free set, as its pivoting loop would
    # find in its first iteration (a loop allowed no iteration finds nothing).
    pivots = (W < -tol_eff).any(axis=0) | (max_iter < 1)
    factors = {}  # block-pivot sub-factors by free set, shared by the columns
    sols = []
    for j in range(k):
        if pivots[j]:
            sol = _nonneg_block_pivot(gram, K, B[:, j], W[:, j], tol_eff[j], max_iter, factors)
        else:
            w = np.maximum(W[:, j], 0.0)
            sol = QPSolution(w, 1, True, partial(_nonneg_diagnostics, K, B[:, j], w))
        sols.append(sol)
        if not sol.converged:
            break
    return sols


def _nonneg_block_pivot(gram, K, b, w, tol_eff, max_iter, factors) -> QPSolution:
    """Block pivoting from the full free set, whose solve ``w`` is given."""
    n = len(b)
    free = np.ones(n, dtype=bool)
    stalls = 0
    best_infeas = np.inf
    single_swap = False
    converged = False
    it = 0

    for it in range(1, max_iter + 1):
        if it > 1:
            w = np.zeros(n)
            if free.any():
                w[free] = gram.solve_block(free, b[free], factors)
        neg_w = free & (w < -tol_eff)
        neg_g = ~free
        if neg_g.any():
            neg_g &= 2.0 * (K @ w - b) < -tol_eff
        infeas = int(neg_w.sum() + neg_g.sum())
        if infeas == 0:
            converged = True
            break

        if infeas < best_infeas:
            best_infeas = infeas
            stalls = 0
            single_swap = False
        else:
            stalls += 1
            if stalls >= 3:
                single_swap = True

        if single_swap:
            idx = int(np.flatnonzero(neg_w | neg_g)[0])
            free[idx] = ~free[idx]
        else:
            free[neg_w] = False
            free[neg_g] = True

    w = np.maximum(w, 0.0)
    return QPSolution(
        weights=w,
        iterations=it,
        converged=converged,
        _diagnostics=partial(_nonneg_diagnostics, K, b, w),
    )
