import numpy as np
import pytest

import rieszlab as rl
from rieszlab import (
    GramMatrix,
    IllConditioned,
    KernelSpec,
    assemble_gram,
    solve_nonneg,
    solve_simplex,
)
from rieszlab.solver import solve_nonneg_many


def gram_from(entries, reg=0.1):
    entries = np.asarray(entries, dtype=float)
    nodes = np.zeros((len(entries), 3))
    nodes[:, 0] = np.arange(len(entries))
    return GramMatrix(nodes, entries, reg)


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


def test_nonneg_matches_objective_dominance(spec):
    """The solution beats 100 random feasible vectors."""
    rng = np.random.default_rng(10)
    nodes = rng.normal(size=(40, 3)) * 2.0
    g = assemble_gram(spec, nodes)
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
    g = assemble_gram(spec, nodes)
    b = rng.normal(size=25)
    w1 = solve_nonneg(g, b).weights
    w2 = solve_nonneg(g, b).weights
    assert np.array_equal(w1, w2)


def test_simplex_symmetric_two_nodes():
    d, k = 10.0, 1.0
    g = gram_from([[d, k], [k, d]])
    sol = solve_simplex(g, total=1.0)
    assert np.allclose(sol.weights, [0.5, 0.5])
    assert sol.objective == pytest.approx((d + k) / 2.0)


def test_simplex_single_node():
    g = gram_from([[4.0]])
    sol = solve_simplex(g, total=3.0)
    assert sol.weights[0] == 3.0
    assert sol.objective == pytest.approx(36.0)


def test_simplex_mass_is_exact(spec):
    rng = np.random.default_rng(12)
    nodes = rng.normal(size=(30, 3)) * 1.5
    g = assemble_gram(spec, nodes)
    sol = solve_simplex(g, total=2.5)
    assert np.all(sol.weights >= 0.0)
    assert np.sum(sol.weights) == pytest.approx(2.5, rel=1e-12)


def test_simplex_three_collinear_nodes_against_grid(spec):
    """Endpoints symmetric, middle smaller; verified by brute-force grid."""
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    g = assemble_gram(spec, nodes)  # reg = 0.5 everywhere
    sol = solve_simplex(g, total=1.0)
    w = sol.weights
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
    assert sol.objective <= best + 1e-9
    assert np.max(np.abs(w - best_w)) < 2e-3


def test_simplex_dominates_random_feasible(spec):
    rng = np.random.default_rng(13)
    nodes = rng.normal(size=(35, 3)) * 2.0
    g = assemble_gram(spec, nodes)
    sol = solve_simplex(g, total=1.0)
    for _ in range(100):
        v = rng.random(35)
        v /= v.sum()
        assert float(v @ (g.entries @ v)) >= sol.objective - 1e-9


def test_simplex_objective_monotone_in_nodes(spec):
    """Adding nodes can only lower the minimum energy."""
    pts = rl.fibonacci_sphere(200, 1.0)
    reg = 0.05
    g_small = assemble_gram(spec, pts[:120], reg_radius=reg)
    g_big = assemble_gram(spec, pts, reg_radius=reg)
    e_small = solve_simplex(g_small, total=1.0).objective
    e_big = solve_simplex(g_big, total=1.0).objective
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
    condition check makes solve_simplex raise IllConditioned."""
    g = near_singular_gram()
    with pytest.raises(IllConditioned):
        solve_simplex(g, total=1.0)


def test_solution_reports_iterations_and_method(spec):
    rng = np.random.default_rng(15)
    nodes = rng.normal(size=(20, 3))
    g = assemble_gram(spec, nodes)
    sol = solve_nonneg(g, rng.normal(size=20))
    assert sol.iterations >= 1
    assert sol.method == "block-pivot"
    assert solve_simplex(g, total=1.0).method == "active-set"


def test_nonneg_many_columns_match_single_solves(spec):
    """Each column of a batched solve is bitwise the one-column solve."""
    rng = np.random.default_rng(16)
    g = assemble_gram(spec, rng.normal(size=(40, 3)))
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


def test_nonneg_many_stops_at_first_unconverged_column(spec):
    """Columns are solved in order; the first one that does not converge
    ends the list, and later columns are not solved."""
    rng = np.random.default_rng(18)
    g = assemble_gram(spec, rng.normal(size=(30, 3)))
    inside = g.entries @ (rng.random(30) + 0.1)  # unconstrained solve is nonnegative
    B = np.stack([inside, rng.normal(size=30), inside], axis=1)
    sols = solve_nonneg_many(g, B, max_iter=1)
    assert [sol.converged for sol in sols] == [True, False]


def test_diagnostics_equal_the_eager_expressions_bitwise(spec):
    """Lazy objective and KKT residual equal the eager expressions, bit for bit."""
    from rieszlab.solver import _nonneg_kkt_residual, _objective

    rng = np.random.default_rng(16)
    g = assemble_gram(spec, rng.normal(size=(40, 3)))
    B = np.asfortranarray(rng.normal(size=(40, 6)))  # contiguous columns, as the solver uses
    for j, sol in enumerate(solve_nonneg_many(g, B)):
        Kw = g.entries @ sol.weights
        assert sol.objective == _objective(Kw, B[:, j], sol.weights)
        assert sol.kkt_residual == _nonneg_kkt_residual(Kw, B[:, j], sol.weights)


def test_solution_weights_are_read_only(spec):
    rng = np.random.default_rng(17)
    g = assemble_gram(spec, rng.normal(size=(10, 3)))
    for sol in (solve_nonneg(g, rng.normal(size=10)), solve_simplex(g, total=1.0)):
        with pytest.raises(ValueError):
            sol.weights[0] = 1.0
