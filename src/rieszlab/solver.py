"""Quadratic programs on the nonnegative orthant over kernel Gram matrices.

For a symmetric positive definite Gram matrix K, solve_nonneg[_many]
minimizes  q(w) = w'Kw - 2 b'w  over w >= 0 by block principal pivoting,
a finite method driven by Cholesky solves.  Balayage solves one such
problem per source, and the equilibrium measure is the case b = 1
(Gauss's problem).  A Gram that fails GramMatrix.cholesky, the one
positive-definiteness test, raises IllConditioned; Region.gram caps its
regularization so that region Grams pass.  Non-convergence is decided
here alone: a column still infeasible after MAX_ITER_PER_NODE iterations
per node raises SolverFailure, so every returned solution converged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import DEFAULT_TOL, TINY, GramMatrix, _check_tolerance
from .errors import InvalidInput, SolverFailure

__all__ = ["QPSolution", "solve_nonneg"]

# Block pivoting's iteration cap, per node of the Gram matrix.
MAX_ITER_PER_NODE = 50


@dataclass(frozen=True)
class QPSolution:
    """Outcome of a converged quadratic minimization over the nonnegative orthant.

    ``method`` is always ``"block-pivot"`` and ``converged`` always True.
    ``b`` is the right-hand side.  ``Kw``, the product ``K @ w``, and the
    diagnostics ``objective`` and ``kkt_residual`` read from it are computed
    on first read and cached, since convergence is decided on infeasibility
    counts alone; until then the solution holds a reference to the Gram
    entries K (not a copy).  ``weights`` and ``Kw`` are read-only, so a
    pending diagnostic always sees the w it belongs to.
    """

    method: ClassVar[str] = "block-pivot"
    converged: ClassVar[bool] = True

    weights: np.ndarray
    iterations: int
    _entries: np.ndarray = field(repr=False, compare=False)
    b: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.weights.setflags(write=False)

    @cached_property
    def Kw(self) -> np.ndarray:
        Kw = self._entries @ self.weights
        Kw.setflags(write=False)
        return Kw

    @cached_property
    def objective(self) -> float:
        return _objective(self.Kw, self.b, self.weights)

    @cached_property
    def kkt_residual(self) -> float:
        return _nonneg_kkt_residual(self.Kw, self.b, self.weights)


def _objective(Kw: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    return float(w @ Kw - 2.0 * (b @ w))


def _nonneg_kkt_residual(Kw, b, w) -> float:
    g = 2.0 * (Kw - b)
    dual = float(np.max(-g, initial=0.0))
    comp = float(np.max(np.abs(w * g) / (1.0 + np.abs(w)), initial=0.0))
    return max(dual, comp, 0.0)


def solve_nonneg(gram: GramMatrix, b, tol: float = DEFAULT_TOL) -> QPSolution:
    """Minimize w'Kw - 2 b'w over w >= 0 (the one-column case of solve_nonneg_many)."""
    b = np.asarray(b, dtype=float)
    return solve_nonneg_many(gram, b[:, None], tol)[0]


def solve_nonneg_many(gram: GramMatrix, B, tol: float = DEFAULT_TOL) -> list[QPSolution]:
    """Minimize w'Kw - 2 b'w over w >= 0 for every column b of ``B``.

    Uses block principal pivoting: the full free set is tried first, for
    all columns in one solve through the cached Cholesky factor.  One test
    of that solve settles, in one iteration, every column whose
    unconstrained solution is nonnegative to tolerance; only the other
    columns enter the pivoting loop.  When blocks stop making progress the
    exchange degrades to single least-index swaps, which terminates
    finitely.  Convergence is declared when no free weight and no gradient
    entry of a zero weight lies below ``-tol * max(|b|_inf, tiny)``.
    Columns are solved in order; SolverFailure is raised at the first one
    still infeasible after ``MAX_ITER_PER_NODE`` iterations per node, and
    later columns are not solved.
    Raises InvalidInput unless ``tol`` is finite and positive, and
    IllConditioned if the Gram matrix fails ``GramMatrix.cholesky``.
    """
    _check_tolerance("tol", tol, positive=True)
    K = gram.entries
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or K.shape != (len(B), len(B)):
        raise InvalidInput("b length must match the Gram matrix size")
    tol_eff = tol * np.maximum(np.max(np.abs(B), axis=0, initial=0.0), TINY)
    # Contiguous columns.  The solve equals one-column solves to rounding, and
    # bitwise below 12 columns; with one BLAS thread some sizes differ above.
    B = np.asfortranarray(B)

    W = gram.solve(B)
    # Every column's first pass at once: a column with no weight below
    # -tol_eff converges on the full free set, as its pivoting loop would
    # find in its first iteration.
    pivots = (W < -tol_eff).any(axis=0)
    factors = {}  # block-pivot sub-factors by free set, shared by the columns
    return [
        _nonneg_block_pivot(gram, B[:, j], W[:, j], tol_eff[j], factors) if pivots[j]
        else QPSolution(np.maximum(W[:, j], 0.0), 1, K, B[:, j])
        for j in range(B.shape[1])
    ]


def _nonneg_block_pivot(gram, b, w, tol_eff, factors) -> QPSolution:
    """Block pivoting from the full free set, whose solve ``w`` is given."""
    K = gram.entries
    n = len(b)
    free = np.ones(n, dtype=bool)
    stalls = 0
    best_infeas = np.inf
    single_swap = False
    it = 0

    for it in range(1, MAX_ITER_PER_NODE * n + 1):
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
            return QPSolution(np.maximum(w, 0.0), it, K, b)

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

    sol = QPSolution(np.maximum(w, 0.0), it, K, b)
    raise SolverFailure(
        f"nonnegative QP did not converge: kkt residual {sol.kkt_residual:.3e} "
        f"after {it} iterations ({sol.method})"
    )
