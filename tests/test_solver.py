from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import rieszlab as rl
from rieszlab import (
    GramMatrix,
    IllConditioned,
    KernelSpec,
    SolverFailure,
    solve_nonneg,
)
from rieszlab import solver
from rieszlab.equilibrium import _equilibrium_from_gram
from rieszlab.solver import QPSolution, solve_nonneg_many

from conftest import gram_over


def gram_from(entries):
    entries = np.asarray(entries, dtype=float)
    nodes = np.zeros((len(entries), 3))
    nodes[:, 0] = np.arange(len(entries))
    return GramMatrix(nodes, entries)


def test_nonneg_unconstrained_case():
    g = gram_from([[10.0, 1.0], [1.0, 10.0]])
    b = np.array([11.0, 11.0])
    sol = solve_nonneg(g, b)
    assert sol.converged
    assert np.allclose(sol.weights, [1.0, 1.0])
    assert sol.kkt_residual <= 1e-10 * 11.0


def test_nonneg_clips_to_active_set():
    g = gram_from([[10.0, 1.0], [1.0, 10.0]])
    b = np.array([-1.0, 20.0])
    sol = solve_nonneg(g, b)
    assert sol.weights[0] == 0.0  # exact zero, not a small positive
    assert sol.weights[1] == pytest.approx(2.0)
    # gradient at the clipped coordinate points the right way
    grad = 2.0 * (g.entries @ sol.weights - b)
    assert grad[0] > 0.0


def test_nonneg_single_node():
    g = gram_from([[4.0]])
    assert solve_nonneg(g, np.array([8.0])).weights[0] == pytest.approx(2.0)
    assert solve_nonneg(g, np.array([-8.0])).weights[0] == 0.0


def test_nonneg_rejects_a_right_hand_side_of_another_length():
    g = gram_from([[10.0, 1.0], [1.0, 10.0]])
    with pytest.raises(ValueError, match="b length must match the Gram matrix size"):
        solve_nonneg(g, np.array([1.0, 2.0, 3.0]))


def test_nonneg_matches_objective_dominance(spec):
    """The solution beats 100 random feasible vectors."""
    rng = np.random.default_rng(10)
    nodes = rng.normal(size=(40, 3)) * 2.0
    g = gram_over(spec, nodes)
    b = rng.normal(size=40) * 3.0
    sol = solve_nonneg(g, b)

    def q(w):
        return float(w @ (g.entries @ w) - 2.0 * b @ w)

    assert sol.objective == pytest.approx(q(sol.weights), abs=1e-9)
    for _ in range(100):
        v = rng.random(40) * np.abs(sol.weights).max() * 2.0
        assert q(v) >= sol.objective - 1e-9 * max(1.0, abs(sol.objective))


def test_nonneg_deterministic(spec):
    rng = np.random.default_rng(11)
    nodes = rng.normal(size=(25, 3))
    g = gram_over(spec, nodes)
    b = rng.normal(size=25)
    w1 = solve_nonneg(g, b).weights
    w2 = solve_nonneg(g, b).weights
    assert np.array_equal(w1, w2)


def equilibrium_of(g, tol=1e-10):
    """The equilibrium of a Gram matrix: Gauss's problem min w'Kw - 2 1'w, w >= 0."""
    return _equilibrium_from_gram(g, tol)


def probability_weights(eq):
    """The probability vector of least energy, x*/1'x*, on every node."""
    x = eq.solution.weights
    return x / x.sum()


def test_simplex_symmetric_two_nodes():
    d, k = 10.0, 1.0
    g = gram_from([[d, k], [k, d]])
    eq = equilibrium_of(g)
    assert np.allclose(probability_weights(eq), [0.5, 0.5])
    assert eq.min_energy == pytest.approx((d + k) / 2.0)


def test_simplex_single_node():
    g = gram_from([[4.0]])
    eq = equilibrium_of(g)
    assert eq.gamma.weights[0] / eq.capacity == 1.0
    assert eq.min_energy == pytest.approx(4.0)


def test_simplex_mass_is_exact(spec):
    rng = np.random.default_rng(12)
    nodes = rng.normal(size=(30, 3)) * 1.5
    g = gram_over(spec, nodes)
    eq = equilibrium_of(g)
    assert np.all(eq.solution.weights >= 0.0)
    assert np.all(eq.gamma.weights > 0.0)
    assert eq.gamma.total_mass == pytest.approx(eq.capacity, rel=1e-12)


def test_simplex_three_collinear_nodes_against_grid(spec):
    """Endpoints symmetric, middle smaller; verified by brute-force grid."""
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    g = gram_over(spec, nodes)  # reg = 0.5 everywhere
    eq = equilibrium_of(g)
    w = probability_weights(eq)
    assert w[0] == pytest.approx(w[2], rel=1e-10)
    assert w[1] < w[0]

    best, best_w = np.inf, None
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for a in grid:
        for m in np.arange(0.0, 1.0 - a + 1e-12, 1e-3):
            v = np.array([a, m, 1.0 - a - m])
            if v[2] < 0:
                continue
            val = float(v @ (g.entries @ v))
            if val < best:
                best, best_w = val, v
    assert eq.min_energy <= best + 1e-9
    assert np.max(np.abs(w - best_w)) < 2e-3


def test_simplex_dominates_random_feasible(spec):
    rng = np.random.default_rng(13)
    nodes = rng.normal(size=(35, 3)) * 2.0
    g = gram_over(spec, nodes)
    eq = equilibrium_of(g)
    for _ in range(100):
        v = rng.random(35)
        v /= v.sum()
        assert float(v @ (g.entries @ v)) >= eq.min_energy - 1e-9


def test_simplex_objective_monotone_in_nodes(spec):
    """Adding nodes can only lower the minimum energy."""
    pts = rl.fibonacci_sphere(200, 1.0)
    reg = 0.05
    g_small = gram_over(spec, pts[:120], radius=reg)
    g_big = gram_over(spec, pts, radius=reg)
    e_small = equilibrium_of(g_small).min_energy
    e_big = equilibrium_of(g_big).min_energy
    assert e_big <= e_small + 1e-10


def near_singular_gram():
    eps = 2e-15
    entries = np.array(
        [[1.0, 1.0 - eps, 0.2], [1.0 - eps, 1.0, 0.2], [0.2, 0.2, 1.0]]
    )
    return gram_from(entries)


def test_ill_conditioned_falls_back_to_projected_gradient():
    """There is no projected-gradient fallback any more: a Gram that fails
    the condition check makes solve_nonneg raise IllConditioned."""
    g = near_singular_gram()
    with pytest.raises(IllConditioned):
        solve_nonneg(g, np.array([1.0, 1.0, 0.5]))


def test_ill_conditioned_simplex_fallback():
    """There is no simplex fallback any more: a Gram that fails the
    condition check makes the equilibrium solve raise IllConditioned."""
    g = near_singular_gram()
    with pytest.raises(IllConditioned):
        equilibrium_of(g)


def test_factor_with_untrusted_pivots_is_neither_returned_nor_cached():
    """The squared pivot ratio of near_singular_gram is about 2.5e14, above
    CONDITION_LIMIT: cholesky raises every time, and so does a solve."""
    g = near_singular_gram()
    for call in (g.cholesky, g.cholesky, lambda: g.solve(np.ones(3))):
        with pytest.raises(IllConditioned, match="pivot ratio"):
            call()


def _kkt_point_by_enumeration(K, b):
    """The minimizer of w'Kw - 2 b'w over w >= 0, found as the one support
    whose solve is nonnegative with a nonnegative gradient off it."""
    n = len(b)
    found = []
    for size in range(n + 1):
        for support in map(list, combinations(range(n), size)):
            w = np.zeros(n)
            if support:
                w[support] = np.linalg.solve(K[np.ix_(support, support)], b[support])
            if (w >= -1e-12).all() and (np.delete(K @ w - b, support) >= -1e-12).all():
                found.append(w)
    assert len(found) == 1
    return found[0]


def test_block_pivot_stalls_into_single_swaps():
    """Infeasibility counts 1, 1, 2, 1 make no progress for three
    iterations, so the fourth exchange is a single least-index swap; the
    fifth iteration is the minimizer."""
    K = np.array([[32, -13, -22, -13, -12],
                  [-13, 19, 10, 16, 14],
                  [-22, 10, 23, 8, 10],
                  [-13, 16, 8, 16, 12],
                  [-12, 14, 10, 12, 13]], dtype=float)
    b = np.array([-3.0, -4.0, 1.0, 5.0, 0.0])
    sol = solve_nonneg(GramMatrix(np.zeros((5, 3)), K), b)
    assert sol.converged
    assert sol.iterations == 5
    assert np.max(np.abs(sol.weights - _kkt_point_by_enumeration(K, b))) <= 1e-15


def test_solution_reports_iterations_and_method(spec):
    rng = np.random.default_rng(15)
    nodes = rng.normal(size=(20, 3))
    g = gram_over(spec, nodes)
    sol = solve_nonneg(g, rng.normal(size=20))
    assert sol.iterations >= 1
    assert sol.method == "block-pivot"
    assert equilibrium_of(g).solution.method == "block-pivot"
    assert QPSolution.method == "block-pivot"  # one method, a class constant


def test_nonneg_many_columns_match_single_solves(spec):
    """Each column of a batched solve is bitwise the one-column solve."""
    rng = np.random.default_rng(16)
    g = gram_over(spec, rng.normal(size=(40, 3)))
    B = rng.normal(size=(40, 12))
    many = solve_nonneg_many(g, B)
    assert len(many) == 12
    assert any(sol.iterations > 1 for sol in many)  # some columns pivot
    for j, sol in enumerate(many):
        one = solve_nonneg(g, B[:, j].copy())
        assert np.array_equal(sol.weights, one.weights)
        assert sol.iterations == one.iterations
        assert sol.method == one.method
        assert sol.kkt_residual == one.kkt_residual
        assert sol.objective == one.objective


def pivot_spy(monkeypatch) -> list:
    """Record the right-hand side of every column that enters block pivoting."""
    solved = []
    loop = solver._nonneg_block_pivot

    def spy(gram, b, *args):
        solved.append(b)
        return loop(gram, b, *args)

    monkeypatch.setattr(solver, "_nonneg_block_pivot", spy)
    return solved


def test_nonneg_many_stops_at_first_unconverged_column(spec, monkeypatch):
    """Columns are solved in order; the first one that does not converge
    raises SolverFailure, and later columns are not solved."""
    rng = np.random.default_rng(18)
    g = gram_over(spec, rng.normal(size=(30, 3)))
    inside = g.entries @ (rng.random(30) + 0.1)  # unconstrained solve is nonnegative
    B = np.stack([inside, rng.normal(size=30), inside, rng.normal(size=30)], axis=1)
    solved = pivot_spy(monkeypatch)
    assert [sol.iterations > 1 for sol in solve_nonneg_many(g, B)] == [False, True, False, True]
    assert [b.tolist() for b in solved] == [B[:, 1].tolist(), B[:, 3].tolist()]
    solved.clear()
    monkeypatch.setattr(solver, "MAX_ITER_PER_NODE", 0)
    with pytest.raises(SolverFailure, match=r"^nonnegative QP did not converge: kkt residual "
                       r"\S+ after 0 iterations \(block-pivot\)$"):
        solve_nonneg_many(g, B)
    assert [b.tolist() for b in solved] == [B[:, 1].tolist()]  # column 3 is not solved


def _wiener_shell_cloud(spec, scale=1.0):
    """The half-space Wiener shell at a boundary point, whose Gauss problem
    pivots one node out of the support, as a cloud region."""
    nodes = rl.HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(np.zeros(3), 0.5, 1.0, 400)
    return rl.cloud_region(scale * nodes, spec)


def _gauss_twice(spec):
    gram = _wiener_shell_cloud(spec).gram(spec)
    return solve_nonneg_many(gram, np.ones((gram.n, 2)))


@pytest.mark.parametrize(
    "run",
    [
        lambda spec, gk: _gauss_twice(spec),
        lambda spec, gk: rl.sweep(spec, rl.dirac([0.0, 0.0, -2.0]), _wiener_shell_cloud(spec)),
        lambda spec, gk: rl.sweep_many(
            spec, [rl.dirac([0.0, 0.0, -2.0]), rl.dirac([0.0, 0.0, -3.0])], _wiener_shell_cloud(spec)),
        lambda spec, gk: rl.riesz_equilibrium(spec, _wiener_shell_cloud(spec)),
        lambda spec, gk: rl.green_equilibrium(gk, _wiener_shell_cloud(spec, 0.3)),
    ],
    ids=["solve_nonneg_many", "sweep", "sweep_many", "riesz_equilibrium", "green_equilibrium"],
)
def test_a_solve_at_the_iteration_cap_raises_solver_failure(spec, gk2000, run, monkeypatch):
    """Each entry point converges through block pivoting, and with no
    pivoting iteration allowed the solver raises SolverFailure, which the
    callers pass on unchanged."""
    solved = pivot_spy(monkeypatch)
    run(spec, gk2000)
    assert solved  # some column pivots
    solved.clear()
    monkeypatch.setattr(solver, "MAX_ITER_PER_NODE", 0)
    with pytest.raises(SolverFailure, match=r"^nonnegative QP did not converge: .* after 0 iterations"):
        run(spec, gk2000)
    assert len(solved) == 1  # the first pivoting column ends the call


def test_nonneg_many_pivots_only_the_infeasible_columns(spec, monkeypatch):
    """One test of the first solve settles the feasible columns; a pivoting
    column between them takes the pivoting loop alone, and every column is
    bitwise its one-column solve."""
    rng = np.random.default_rng(19)
    g = gram_over(spec, rng.normal(size=(30, 3)))
    feasible = [g.entries @ (rng.random(30) + 0.1) for _ in range(2)]
    B = np.stack([feasible[0], rng.normal(size=30), feasible[1]], axis=1)
    pivoted = pivot_spy(monkeypatch)
    many = solve_nonneg_many(g, B)
    assert [b.tolist() for b in pivoted] == [B[:, 1].tolist()]
    assert [sol.iterations for sol in many][::2] == [1, 1]
    assert many[1].iterations > 1
    for j, sol in enumerate(many):
        one = solve_nonneg(g, B[:, j].copy())
        assert np.array_equal(sol.weights, one.weights)
        assert sol.iterations == one.iterations
        assert sol.converged and one.converged
        assert sol.kkt_residual == one.kkt_residual
        assert sol.objective == one.objective
    pivoted.clear()
    monkeypatch.setattr(solver, "MAX_ITER_PER_NODE", 0)
    with pytest.raises(SolverFailure, match="did not converge"):
        solve_nonneg_many(g, B)
    assert [b.tolist() for b in pivoted] == [B[:, 1].tolist()]  # the feasible columns never pivot


def test_diagnostics_equal_the_eager_expressions_bitwise(spec):
    """Lazy objective and KKT residual equal the eager expressions, bit for bit."""
    from rieszlab.solver import _nonneg_kkt_residual, _objective

    rng = np.random.default_rng(16)
    g = gram_over(spec, rng.normal(size=(40, 3)))
    B = np.asfortranarray(rng.normal(size=(40, 6)))  # contiguous columns, as the solver uses
    for j, sol in enumerate(solve_nonneg_many(g, B)):
        Kw = g.entries @ sol.weights
        assert sol.objective == _objective(Kw, B[:, j], sol.weights)
        assert sol.kkt_residual == _nonneg_kkt_residual(Kw, B[:, j], sol.weights)


def test_solution_weights_are_read_only(spec):
    rng = np.random.default_rng(17)
    g = gram_over(spec, rng.normal(size=(10, 3)))
    for sol in (solve_nonneg(g, rng.normal(size=10)), equilibrium_of(g).solution):
        with pytest.raises(ValueError):
            sol.weights[0] = 1.0


def test_equilibrium_on_a_shrinking_support_takes_few_block_pivots(spec):
    """Gauss's problem on a half-space Wiener shell at a boundary point,
    where one node drops out of the support, takes few block pivots and
    meets its KKT conditions: potential at least 1 on every node, and 1 on
    the support."""
    nodes = rl.HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(np.zeros(3), 0.5, 1.0, 400)
    eq = rl.riesz_equilibrium(spec, rl.cloud_region(nodes, spec))
    support = eq.solution.weights > 0.0
    assert eq.solution.converged
    assert 0 < support.sum() < len(nodes)  # the support shrank
    gamma = np.zeros(len(nodes))
    gamma[support] = eq.gamma.weights
    pot = eq.gram.entries @ gamma
    assert np.all(pot >= 1.0 - 1e-9)
    assert np.max(np.abs(pot[support] - 1.0)) <= 1e-9
    assert eq.solution.iterations <= 3


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_solvers_reject_tolerances_that_are_not_finite_and_positive(spec, tol):
    rng = np.random.default_rng(16)
    g = gram_over(spec, rng.normal(size=(40, 3)))
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_nonneg_many(g, rng.normal(size=(40, 2)), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_nonneg(g, rng.normal(size=40), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        equilibrium_of(g, tol)


def _reference_sub_solve(gram, mask, rhs, factors):
    """Sub-solve on a copied, checked and transposing-copied principal block,
    factored afresh: the solver's shared ``factors`` are ignored."""
    if mask.all():
        return gram.solve(rhs)
    return cho_solve(cho_factor(gram.entries[np.ix_(mask, mask)], lower=True), rhs)


@pytest.mark.parametrize("alpha", [1.5, 1.0])
def test_partial_support_sweep_matches_reference_sub_solves(alpha, monkeypatch):
    """A sweep onto the nodes of two balls, with one radius for all of
    them, from behind the larger ball pivots off a node; factoring its
    principal blocks in place through their transposes gives the weights of
    the reference sub-solve bitwise."""
    spec = KernelSpec(alpha, 3)
    origin = np.zeros(3)
    parts = [rl.ball_region(origin, 1.0, 200, spec), rl.ball_region([2.5, 0.0, 0.0], 0.5, 150, spec)]
    union = rl.cloud_region(np.concatenate([p.nodes for p in parts]), spec)
    charge = rl.dirac([-3.0, 0.0, 0.0])
    swept = rl.sweep(spec, charge, union)
    assert swept.solution.iterations > 1
    assert 0 < np.count_nonzero(swept.solution.weights) < union.n_nodes
    monkeypatch.setattr(GramMatrix, "solve_block", _reference_sub_solve)
    reference = rl.sweep(spec, charge, union)
    assert np.array_equal(swept.solution.weights, reference.solution.weights)
    assert np.array_equal(swept.swept.weights, reference.swept.weights)
