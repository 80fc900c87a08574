"""Cone-constrained quadratic programs over kernel Gram matrices.

Both entry points minimize  q(w) = w'Kw - 2 b'w  for a symmetric positive
definite Gram matrix K, either over the nonnegative orthant or over the
scaled simplex {w >= 0, sum w = total}, by finite active-set methods
driven by Cholesky solves: block principal pivoting for the orthant and a
primal active-set iteration for the simplex.  A Gram matrix that fails
GramMatrix.check_condition raises IllConditioned; Region.gram caps its
regularization so that region Grams pass.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import GramMatrix
from .errors import IllConditioned, SolverFailure

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QPSolution:
    """Outcome of a cone-constrained quadratic minimization.

    ``method`` is ``"block-pivot"`` for the nonnegative orthant and
    ``"active-set"`` for the simplex.

    ``objective`` and ``kkt_residual`` are diagnostics.  A block-pivot
    solution, whose convergence is decided on infeasibility counts alone,
    computes both on the first read of either, with one product ``K @ w``,
    and caches them; until then it holds a reference to the Gram entries
    K (not a copy) and to b.  ``weights`` is read-only, so a pending
    diagnostic always sees the w it belongs to.
    """

    weights: np.ndarray
    iterations: int
    converged: bool
    method: str
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


def _sub_solve(gram: GramMatrix, mask: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K[mask, mask] x = rhs, reusing the cached factor when mask is full."""
    if mask.all():
        return gram.solve(rhs)
    K_sub = gram.entries[np.ix_(mask, mask)]
    try:
        factor = cho_factor(K_sub, lower=True)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditioned("active-set subproblem lost positive definiteness") from exc
    return cho_solve(factor, rhs)


def _nonneg_kkt_residual(Kw, b, w) -> float:
    g = 2.0 * (Kw - b)
    dual = float(np.max(-g, initial=0.0))
    comp = float(np.max(np.abs(w * g) / (1.0 + np.abs(w)), initial=0.0))
    return max(dual, comp, 0.0)


def _nonneg_diagnostics(K, b, w) -> tuple[float, float]:
    """(objective, KKT residual) of a nonnegative-orthant solution w."""
    Kw = K @ w
    return _objective(Kw, b, w), _nonneg_kkt_residual(Kw, b, w)


def _known(objective: float, kkt_residual: float) -> tuple[float, float]:
    """Diagnostics computed eagerly, passed on as ``partial(_known, ...)``."""
    return objective, kkt_residual


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
    all columns in one solve through the cached Cholesky factor, so a
    column whose unconstrained solution is already nonnegative costs
    nothing more.  When blocks stop making progress the exchange degrades
    to single least-index swaps, which terminates finitely.  Convergence
    is declared when no free weight and no gradient entry of a zero weight
    lies below ``-tol * max(|b|_inf, tiny)``.  Columns are solved in
    order, and the list ends at the first one that does not converge.
    Raises IllConditioned if the Gram matrix fails its condition check.
    """
    K = gram.entries
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or K.shape != (len(B), len(B)):
        raise ValueError("b length must match the Gram matrix size")
    n, k = B.shape
    if max_iter is None:
        max_iter = 50 * n
    tol_eff = tol * np.maximum(np.max(np.abs(B), axis=0, initial=0.0), TINY)
    B = np.asfortranarray(B)  # contiguous columns: each BLAS call matches a one-column solve

    gram.check_condition()
    W = gram.solve(B) if n > 1 else np.maximum(B / K[0, 0], 0.0)
    sols = []
    for j in range(k):
        sol = _nonneg_block_pivot(gram, K, B[:, j], W[:, j], tol_eff[j], max_iter)
        sols.append(sol)
        if not sol.converged:
            break
    return sols


def _nonneg_block_pivot(gram, K, b, w, tol_eff, max_iter) -> QPSolution:
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
                w[free] = _sub_solve(gram, free, b[free])
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
        method="block-pivot",
        _diagnostics=partial(_nonneg_diagnostics, K, b, w),
    )


def _simplex_kkt_residual(K, b, w, lam) -> float:
    g = 2.0 * (K @ w - b)
    on = w > 0.0
    stat = float(np.max(np.abs(g[on] - lam), initial=0.0))
    dual = float(np.max(lam - g[~on], initial=0.0))
    return max(stat, dual, 0.0)


def solve_simplex(
    gram: GramMatrix,
    b=None,
    total: float = 1.0,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> QPSolution:
    """Minimize w'Kw - 2 b'w over {w >= 0, sum w = total}.

    Primal active-set iteration starting from the uniform point.  Each
    subproblem restricts to the current support, solves the
    equality-constrained KKT system by two Cholesky solves, and either
    moves there, hits a bound (dropping the blocking coordinate, lowest
    index first), or releases the active coordinate with the most negative
    reduced gradient.  Tolerances scale with max(|lambda|, |b|_inf).
    Raises IllConditioned if the Gram matrix fails its condition check.
    """
    K = gram.entries
    n = K.shape[0]
    if b is None:
        b = np.zeros(n)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (n,):
        raise ValueError("b must have one entry per Gram matrix row")
    if not total > 0:
        raise ValueError("total mass must be positive")
    if max_iter is None:
        max_iter = 50 * n

    if n == 1:
        w = np.array([total])
        return QPSolution(
            weights=w,
            iterations=1,
            converged=True,
            method="active-set",
            _diagnostics=partial(_known, _objective(K @ w, b, w), 0.0),
        )

    gram.check_condition()
    return _simplex_active_set(gram, K, b, total, tol, max_iter)


def _simplex_subproblem(gram, mask, b, total):
    """Minimizer on the support ``mask`` with only the mass constraint."""
    ones = np.ones(int(mask.sum()))
    x_b = _sub_solve(gram, mask, b[mask])
    x_1 = _sub_solve(gram, mask, ones)
    denom = float(ones @ x_1)
    lam = 2.0 * (total - float(ones @ x_b)) / denom
    return x_b + 0.5 * lam * x_1, lam


def _simplex_active_set(gram, K, b, total, tol, max_iter) -> QPSolution:
    n = len(b)
    w = np.full(n, total / n)
    support = np.ones(n, dtype=bool)
    lam = 0.0

    for it in range(1, max_iter + 1):
        target_sub, lam = _simplex_subproblem(gram, support, b, total)
        target = np.zeros(n)
        target[support] = target_sub

        if np.all(target_sub >= 0.0):
            w = target
            g = 2.0 * (K @ w - b)
            reduced = lam - g
            reduced[support] = 0.0
            worst = int(np.argmax(reduced))
            scale = max(abs(lam), float(np.max(np.abs(b), initial=0.0)), TINY)
            if reduced[worst] <= tol * scale:
                w = np.maximum(w, 0.0)
                w *= total / w.sum()
                return QPSolution(
                    weights=w,
                    iterations=it,
                    converged=True,
                    method="active-set",
                    _diagnostics=partial(
                        _known, _objective(K @ w, b, w), _simplex_kkt_residual(K, b, w, lam)
                    ),
                )
            support[worst] = True
            continue

        # Step toward the subproblem minimizer until a coordinate hits zero.
        direction = target - w
        shrinking = support & (direction < 0.0)
        ratios = np.full(n, np.inf)
        ratios[shrinking] = w[shrinking] / -direction[shrinking]
        theta = min(1.0, float(ratios.min()))
        w = w + theta * direction
        blocker = int(np.argmin(ratios))
        w[blocker] = 0.0
        support[blocker] = False
        if not support.any():
            raise SolverFailure("active-set iteration emptied the support")

    w = np.maximum(w, 0.0)
    w *= total / w.sum()
    return QPSolution(
        weights=w,
        iterations=max_iter,
        converged=False,
        method="active-set",
        _diagnostics=partial(
            _known, _objective(K @ w, b, w), _simplex_kkt_residual(K, b, w, lam)
        ),
    )
