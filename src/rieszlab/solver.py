"""Cone-constrained quadratic programs over kernel Gram matrices.

Both entry points minimize  q(w) = w'Kw - 2 b'w  for a symmetric positive
definite Gram matrix K, either over the nonnegative orthant or over the
scaled simplex {w >= 0, sum w = total}.  The primary algorithms are
finite active-set methods driven by Cholesky solves; a projected-gradient
fallback takes over when the Gram matrix is too ill-conditioned to
factor reliably.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import GramMatrix
from .errors import IllConditioned, SolverFailure

# Condition-number estimate above which Cholesky pivots are no longer
# trusted and the solver switches to projected gradients.
CONDITION_LIMIT = 1e14

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QPSolution:
    """Outcome of a cone-constrained quadratic minimization.

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


def _check_condition(gram: GramMatrix) -> None:
    try:
        cond = gram.condition_estimate()
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditioned("Gram matrix is not positive definite to rounding") from exc
    if cond > CONDITION_LIMIT:
        raise IllConditioned(
            f"Gram matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )


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
    allow_fallback: bool = True,
) -> QPSolution:
    """Minimize w'Kw - 2 b'w over w >= 0 (the one-column case of solve_nonneg_many)."""
    b = np.asarray(b, dtype=float)
    return solve_nonneg_many(gram, b[:, None], tol, max_iter, allow_fallback)[0]


def solve_nonneg_many(
    gram: GramMatrix,
    B,
    tol: float = 1e-10,
    max_iter: int | None = None,
    allow_fallback: bool = True,
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

    W = None
    try:
        _check_condition(gram)
        W = gram.solve(B) if n > 1 else np.maximum(B / K[0, 0], 0.0)
    except IllConditioned:
        if not allow_fallback:
            raise
    sols = []
    for j in range(k):
        sol = None
        if W is not None:
            try:
                sol = _nonneg_block_pivot(gram, K, B[:, j], W[:, j], tol_eff[j], max_iter)
            except IllConditioned:
                if not allow_fallback:
                    raise
        if sol is None:
            sol = _nonneg_projected_gradient(K, B[:, j], tol_eff[j], max_iter * 40)
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


def _nonneg_projected_gradient(K, b, tol_eff, max_iter) -> QPSolution:
    n = len(b)
    w = np.zeros(n)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = 2.0 * (K @ w - b)
        # Exact minimizer along -g for the unconstrained ray, then project.
        curvature = float(g @ (K @ g))
        if curvature <= 0.0:
            break
        step = float(g @ g) / (2.0 * curvature)
        w = np.maximum(w - step * g, 0.0)
        if it % 16 == 0:
            residual = _nonneg_kkt_residual(K @ w, b, w)
            if residual <= tol_eff:
                break
    objective, residual = _nonneg_diagnostics(K, b, w)
    return QPSolution(
        weights=w,
        iterations=it,
        converged=bool(residual <= tol_eff),
        method="projected-gradient",
        _diagnostics=partial(_known, objective, residual),
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
    allow_fallback: bool = True,
) -> QPSolution:
    """Minimize w'Kw - 2 b'w over {w >= 0, sum w = total}.

    Primal active-set iteration starting from the uniform point.  Each
    subproblem restricts to the current support, solves the
    equality-constrained KKT system by two Cholesky solves, and either
    moves there, hits a bound (dropping the blocking coordinate, lowest
    index first), or releases the active coordinate with the most negative
    reduced gradient.  Tolerances scale with max(|lambda|, |b|_inf).
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

    try:
        _check_condition(gram)
        return _simplex_active_set(gram, K, b, total, tol, max_iter)
    except IllConditioned:
        if not allow_fallback:
            raise
        return _simplex_projected_gradient(K, b, total, tol, max_iter * 40)


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


def project_to_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = total} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    k = np.arange(1, len(v) + 1)
    valid = u - css / k > 0
    rho = int(np.max(np.flatnonzero(valid))) + 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _simplex_projected_gradient(K, b, total, tol, max_iter) -> QPSolution:
    n = len(b)
    w = np.full(n, total / n)
    diag = float(np.max(np.diag(K)))
    step = 0.5 / diag
    lam = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        g = 2.0 * (K @ w - b)
        w_new = project_to_simplex(w - step * g, total)
        if float(np.max(np.abs(w_new - w))) <= 1e-16 * total:
            w = w_new
            break
        w = w_new
    g = 2.0 * (K @ w - b)
    on = w > 0
    lam = float(np.mean(g[on])) if on.any() else 0.0
    residual = _simplex_kkt_residual(K, b, w, lam)
    scale = max(abs(lam), float(np.max(np.abs(b), initial=0.0)), TINY)
    return QPSolution(
        weights=w,
        iterations=it,
        converged=bool(residual <= tol * scale),
        method="projected-gradient",
        _diagnostics=partial(_known, _objective(K @ w, b, w), residual),
    )
