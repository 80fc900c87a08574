import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rieszlab as rl
from rieszlab import (
    DiscreteMeasure,
    NodesOutsideDomain,
    dirac,
    potential,
    potential_at,
    sweep,
    sweep_dirac_by_inversion,
    sweep_many,
    sweep_signed,
    verify_integral_representation,
    verify_symmetry,
    verify_transitivity,
)
from rieszlab.balayage import _sweep_batch

ORIGIN = np.zeros(3)
E1 = np.array([1.0, 0.0, 0.0])


def test_sweep_is_identity_on_node_supported_measures(spec, ball500):
    idx = [3, 77, 401]
    mu = DiscreteMeasure(ball500.nodes[idx], [0.2, 0.3, 0.5])
    res = sweep(spec, mu, ball500)
    assert res.checks.mass_out == pytest.approx(1.0, rel=1e-9)
    got = {tuple(p): w for p, w in zip(res.swept.points, res.swept.weights)}
    for p, w in zip(mu.points, mu.weights):
        assert got[tuple(p)] == pytest.approx(w, abs=1e-8)


def test_sweep_origin_onto_complement(spec, complement2000):
    """A unit charge inside the ball sweeps to the near-uniform boundary
    measure: total mass 1, exterior potential 1/|x|."""
    res = sweep(spec, dirac(ORIGIN), complement2000)
    m = res.swept.total_mass
    assert abs(m - 1.0) < 0.01
    for r in (1.5, 2.0, 3.0):
        val = potential(spec, res.swept, r * E1)
        assert abs(val - 1.0 / r) / (1.0 / r) < 0.01
    # weights are nearly uniform by symmetry
    w = res.solution.weights
    assert w.std() / w.mean() < 0.05
    assert res.checks.mass_ok and res.checks.energy_ok
    assert res.checks.node_equality_gap < 1e-10


def test_sweep_exterior_point_onto_ball(spec, ball2000):
    res = sweep(spec, dirac(2.0 * E1), ball2000)
    assert abs(res.swept.total_mass - 0.5) < 0.005
    # more mass accumulates on the near side
    x = res.swept.points[:, 0]
    near = res.swept.weights[x > 0.5].sum()
    far = res.swept.weights[x < -0.5].sum()
    assert near > 3.0 * far


def test_sweep_checks_fields(spec, ball500):
    res = sweep(spec, dirac(3.0 * E1), ball500, n_probes=50, probe_seed=123)
    c = res.checks
    assert c.mass_in == 1.0
    assert c.mass_out <= c.mass_in * (1.0 + 1e-8)
    assert c.energy_out <= c.energy_in * (1.0 + 1e-8)
    assert c.n_probes == 50
    assert c.probe_seed == 123
    assert c.domination_ok
    # swept potential never exceeds the source potential off the set
    assert c.domination_excess <= 0.02


@pytest.mark.parametrize("tol_dom", [float("nan"), float("inf"), -0.01])
def test_sweep_rejects_bad_domination_tolerance(spec, ball500, tol_dom):
    with pytest.raises(ValueError, match="tol_dom must be finite and nonnegative"):
        sweep(spec, dirac(3.0 * E1), ball500, tol_dom=tol_dom)


@pytest.mark.parametrize(
    "run",
    [
        lambda spec, mu, region: sweep(spec, mu, region),
        lambda spec, mu, region: sweep_many(spec, [mu], region),
        lambda spec, mu, region: sweep_signed(spec, mu, region),
        lambda spec, mu, region: rl.mass_loss_test(spec, mu, region),
    ],
    ids=["sweep", "sweep_many", "sweep_signed", "mass_loss_test"],
)
def test_sweep_rejects_a_source_of_another_dimension(spec, ball500, run):
    mu = DiscreteMeasure([[3.0, 0, 0, 0], [0, 3.0, 0, 0]], [1.0, 0.5])
    with pytest.raises(rl.DimensionMismatch, match="measure and region dimensions differ"):
        run(spec, mu, ball500)


@pytest.mark.parametrize(
    "mu, message",
    [
        (DiscreteMeasure([[3.0, 0, 0], [0, 3.0, 0]], [1.0, -0.5], signed=True),
         "sweep requires a nonnegative measure; use sweep_signed"),
        (DiscreteMeasure.empty(3), "cannot sweep the zero measure"),
    ],
    ids=["signed", "zero"],
)
def test_sweep_rejects_a_signed_or_zero_source(spec, ball500, mu, message):
    with pytest.raises(ValueError, match=message):
        sweep(spec, mu, ball500)


def test_sweep_deterministic(spec, ball500):
    mu = dirac(np.array([1.7, 0.4, -0.2]))
    w1 = sweep_many(spec, [mu], ball500)[0].solution.weights
    w2 = sweep_many(spec, [mu], ball500)[0].solution.weights
    assert np.array_equal(w1, w2)


def _kernel_block(spec, region, points):
    """Kernel between the region nodes (rows) and ``points`` (columns), with
    an atom on a node taking that node's Gram diagonal entry, and every
    entry capped at its node's diagonal entry."""
    D = cdist(region.nodes, points)
    on_node = D == 0.0
    K = np.where(on_node, 1.0, D) ** spec.exponent
    diag = region.gram(spec).entries.diagonal()[:, None]
    K[on_node] = np.broadcast_to(diag, K.shape)[on_node]
    return np.minimum(K, diag)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_kernel_rows_cap_every_entry_at_the_node_diagonal(alpha):
    """Region.kernel_rows equals the reference block bit for bit, for a pole
    exactly on a node, one inside a node's radius but farther than h_min,
    and one far away; only the first sits on a node."""
    spec = rl.KernelSpec(alpha, 3)
    region = rl.sphere_region(ORIGIN, 1.0, 500, spec)
    diag = region.gram(spec).entries.diagonal()
    inside = region.nodes[9] * (1.0 - 1e-3)
    poles = np.stack([region.nodes[7], inside, 2.0 * E1])
    assert region.h_min < 1e-3 < region.reg_radius
    assert 1e-3 ** spec.exponent > diag[9]
    rows, on = region.kernel_rows(spec, poles)
    assert rows.flags.c_contiguous and rows.shape == (3, region.n_nodes)
    assert np.array_equal(rows, _kernel_block(spec, region, poles).T)
    assert rows[0, 7] == diag[7] and rows[1, 9] == diag[9]
    assert on.tolist() == [True, False, False]


def test_source_potentials_handle_node_coincidence(spec, ball500):
    mu = DiscreteMeasure(ball500.nodes[[5]], [2.0])
    block = ball500.kernel_rows(spec, mu.points)[0].T
    (sol,) = _sweep_batch(ball500.gram(spec), block, 1e-10, [mu.weights])
    b = sol.b
    # at its own node the source contributes the regularized energy
    assert b[5] == pytest.approx(2.0 * ball500.reg_radius ** spec.exponent)
    assert np.isfinite(b).all()
    assert np.array_equal(b, _kernel_block(spec, ball500, mu.points) @ mu.weights)


def test_batched_pole_on_a_node_takes_the_gram_diagonal(spec, ball500):
    """Unit charges swept in one batch: each right-hand side is bitwise the
    kernel column of its pole, also for a pole exactly on a node."""
    poles = np.stack([2.0 * E1, ball500.nodes[7], np.array([0.0, -1.5, 1.5])])
    sols = _sweep_batch(ball500.gram(spec), ball500.kernel_rows(spec, poles)[0].T, 1e-10)
    B = np.stack([sol.b for sol in sols], axis=1)
    assert B.shape == (ball500.n_nodes, 3) and len(sols) == 3
    assert np.array_equal(B, _kernel_block(spec, ball500, poles))
    assert B[7, 1] == ball500.gram(spec).entries[7, 7]
    assert sols[1].weights[7] == pytest.approx(1.0, rel=1e-9)


def test_sweep_computes_one_product_with_the_gram(spec, ball500, monkeypatch):
    """The sweep checks and the solver diagnostics share the solution's cached
    K @ w: one product per sweep, and the swept energy reads it bit for bit."""
    import functools

    from rieszlab.solver import QPSolution

    calls = []
    real = QPSolution.Kw.func

    def counting(sol):
        calls.append(1)
        return real(sol)

    spy = functools.cached_property(counting)
    spy.__set_name__(QPSolution, "Kw")
    monkeypatch.setattr(QPSolution, "Kw", spy)
    res = sweep(spec, dirac(2.0 * E1), ball500, n_probes=20)
    assert np.isfinite(res.solution.kkt_residual)
    assert np.isfinite(res.solution.objective)
    assert len(calls) == 1
    w = res.solution.weights
    assert res.checks.energy_out == float(w @ res.solution.Kw)
    assert np.array_equal(res.solution.Kw, ball500.gram(spec).entries @ w)


def test_mass_energy_inequalities_random(spec, ball500):
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = rng.integers(1, 6)
        pts = rng.normal(size=(k, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= (1.3 + 2.0 * rng.random((k, 1)))
        mu = DiscreteMeasure(pts, rng.random(k) + 0.2)
        res = sweep(spec, mu, ball500, n_probes=0)
        assert res.checks.mass_ok
        assert res.checks.energy_ok


def test_symmetry_identical_measures(spec, ball500):
    mu = dirac(2.0 * E1)
    out = verify_symmetry(spec, mu, mu, ball500)
    assert out["rel_gap"] == 0.0


def test_symmetry_random_pairs(spec, ball500):
    rng = np.random.default_rng(22)
    for _ in range(5):
        mu = dirac(rng.normal(size=3) * 0.3 + [2.5, 0, 0])
        nu = dirac(rng.normal(size=3) * 0.3 - [2.5, 0, 0])
        out = verify_symmetry(spec, mu, nu, ball500)
        assert out["rel_gap"] < 0.02
        assert out["e_mu_nu"] > 0.0


def test_integral_representation_single_atom(spec, ball500):
    out = verify_integral_representation(spec, dirac(2.0 * E1), ball500)
    # one atom: both routes are literally the same solve
    assert out["max_rel_gap"] < 1e-12
    assert out["mass_rel_gap"] < 1e-12


def test_integral_representation_multi_atom(spec, ball500):
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(5, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 2.0
    mu = DiscreteMeasure(pts, rng.random(5) + 0.5)
    out = verify_integral_representation(spec, mu, ball500, n_probes=100)
    assert out["max_rel_gap"] < 0.02
    assert out["mass_rel_gap"] < 0.02


@pytest.mark.parametrize("verify", [
    lambda spec, mu, ball, n: verify_integral_representation(spec, mu, ball, n_probes=n),
    lambda spec, mu, ball, n: verify_transitivity(
        spec, mu, ball, rl.sphere_region(ORIGIN, 0.5, 200, spec), n_probes=n),
], ids=["representation", "transitivity"])
def test_probe_verifiers_without_probes(spec, ball500, verify):
    """With no probe there is no potential gap, and the mass gap is the one
    a run with probes reports."""
    mu = DiscreteMeasure([2.0 * E1, -2.5 * E1], [1.0, 0.5])
    none, some = verify(spec, mu, ball500, 0), verify(spec, mu, ball500, 20)
    assert none["max_rel_gap"] == 0.0 and none["n_probes"] == 0
    assert none["mass_rel_gap"] == some["mass_rel_gap"]


def test_transitivity_via_subset(spec, ball2000):
    f = rl.sphere_region(ORIGIN, 0.5, 400, spec)
    out = verify_transitivity(spec, dirac(3.0 * E1), ball2000, f, n_probes=60)
    assert out["max_rel_gap"] < 0.02


def test_transitivity_fixed_point(spec, ball500):
    # F = A: the second sweep is the identity
    out = verify_transitivity(spec, dirac(3.0 * E1), ball500, ball500, n_probes=40)
    assert out["max_rel_gap"] < 1e-8


def test_transitivity_shares_one_solve_on_the_inner_region(spec, ball500, monkeypatch):
    """The direct and the second-stage sweep onto F share one batched solve,
    and the report is bitwise the one from three separate sweeps."""
    import rieszlab.balayage as balayage

    f = rl.sphere_region(ORIGIN, 0.5, 200, spec)
    mu = dirac(3.0 * E1)
    direct = sweep_many(spec, [mu], f)[0]
    staged_a = sweep_many(spec, [mu], ball500)[0]
    staged = sweep_many(spec, [staged_a.swept], f)[0]
    probes = rl.sample_points_off(f, 40, rl.regions.PROBE_SEED)
    p_direct = rl.potential_at(spec, direct.swept, probes)
    p_staged = rl.potential_at(spec, staged.swept, probes)
    expected = {
        "max_rel_gap": float(np.max(np.abs(p_staged - p_direct) / np.abs(p_direct))),
        "mass_rel_gap": abs(staged.swept.total_mass - direct.swept.total_mass)
        / direct.swept.total_mass,
        "n_probes": 40,
    }

    calls = []
    real = balayage.sweep_many

    def counting(spec_, sources, region, tol):
        calls.append(len(sources))
        return real(spec_, sources, region, tol)

    monkeypatch.setattr(balayage, "sweep_many", counting)
    out = verify_transitivity(spec, mu, ball500, f, n_probes=40)
    assert calls == [1, 2]
    assert out == expected


def test_transitivity_rejects_outside_subset(spec, ball500):
    f = rl.sphere_region(ORIGIN, 2.0, 100, spec)
    with pytest.raises(NodesOutsideDomain):
        verify_transitivity(spec, dirac(5.0 * E1), ball500, f)


def test_sweep_signed_hahn_decomposition(spec, ball500):
    mu = DiscreteMeasure(
        [[2.0, 0, 0], [-2.0, 0, 0]], [1.0, -0.5], signed=True
    )
    res = sweep_signed(spec, mu, ball500)
    assert res.positive is not None and res.negative is not None
    assert res.swept.signed
    expected = res.positive.swept.total_mass - res.negative.swept.total_mass
    assert res.swept.total_mass == pytest.approx(expected, rel=1e-9)
    # the signed sweep matches the difference of the one-sided sweeps
    probe = np.array([[0.0, 3.0, 0.0]])
    lhs = potential_at(spec, res.swept, probe)[0]
    rhs = (
        potential_at(spec, res.positive.swept, probe)[0]
        - potential_at(spec, res.negative.swept, probe)[0]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sweep_positive_measure_through_signed_api(spec, ball500):
    res = sweep_signed(spec, dirac(2.0 * E1), ball500)
    assert res.negative is None
    assert not res.swept.signed


def test_sweep_by_inversion_matches_qp(spec, ball2000):
    direct = sweep_many(spec, [dirac(2.0 * E1)], ball2000)[0]
    via_kelvin = sweep_dirac_by_inversion(spec, 2.0 * E1, 1.0, ball2000)
    assert via_kelvin.total_mass == pytest.approx(
        direct.swept.total_mass, rel=0.01
    )
    probes = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, -4.0]])
    pa = potential_at(spec, direct.swept, probes)
    pb = potential_at(spec, via_kelvin, probes)
    assert np.max(np.abs(pa - pb) / pa) < 0.01


def test_sweep_by_inversion_onto_sphere_has_exact_mass(spec):
    """A unit charge at distance 2 sweeps onto the unit sphere with mass
    1/2.  The image of the sphere is again a sphere with its own nodes."""
    region = rl.sphere_region(ORIGIN, 1.0, 400, spec)
    swept = sweep_dirac_by_inversion(spec, 2.0 * E1, 1.0, region)
    assert swept.total_mass == pytest.approx(0.5, rel=0.01)
    assert np.allclose(np.linalg.norm(swept.points, axis=1), 1.0)


def test_sweep_by_inversion_rejects_charge_on_region(spec, ball500):
    with pytest.raises(ValueError):
        sweep_dirac_by_inversion(spec, E1, 1.0, ball500)


def test_sweep_scales_linearly(spec, ball500):
    """Sweeping commutes with scaling the source measure."""
    r1 = sweep_many(spec, [dirac(2.0 * E1, 1.0)], ball500)[0]
    r3 = sweep_many(spec, [dirac(2.0 * E1, 3.0)], ball500)[0]
    assert np.allclose(3.0 * r1.solution.weights, r3.solution.weights,
                       rtol=1e-10, atol=1e-12)


def test_sweep_many_matches_single_sweeps(spec, ball500):
    rng = np.random.default_rng(17)
    sources = [dirac((1.5 + rng.random()) * d / np.linalg.norm(d)) for d in rng.normal(size=(6, 3))]
    sources.append(DiscreteMeasure(3.0 * np.eye(3), [0.5, 1.0, 2.0]))
    many = sweep_many(spec, sources, ball500)
    for mu, res in zip(sources, many):
        one = sweep(spec, mu, ball500)
        assert res.checks is None
        assert np.array_equal(res.solution.weights, one.solution.weights)
        assert np.array_equal(res.swept.points, one.swept.points)
        assert res.solution.kkt_residual == one.solution.kkt_residual
    assert sweep_many(spec, [], ball500) == []


def test_alpha_below_two_complement_sweeps_by_block_pivoting():
    """The layered alpha=1.5 complement mixes node spacings, so its Gram
    takes the capped diagonal; every source then sweeps by block pivoting
    and loses mass, as sweeping onto a set with a hole must."""
    spec15 = rl.KernelSpec(1.5, 3)
    region = rl.ball_complement_region(ORIGIN, 1.0, 250, spec15)
    rng = np.random.default_rng(18)
    sources = [dirac(ORIGIN)] + [dirac(0.3 * rng.uniform(-1.0, 1.0, 3)) for _ in range(19)]
    results = sweep_many(spec15, sources, region)
    assert len(results) == 20
    for res in results:
        assert res.solution.converged
        assert res.solution.method == "block-pivot"
        assert res.swept.total_mass <= 1.0


def test_measure_on_capped_nodes_is_a_fixed_point():
    """Atoms on nodes whose radius was capped take the capped self-term, in
    the source potentials and in the source energy alike."""
    spec15 = rl.KernelSpec(1.5, 3)
    region = rl.ball_complement_region(ORIGIN, 1.0, 250, spec15)
    diag = region.gram(spec15).entries.diagonal()
    idx = np.flatnonzero(diag > region.reg_radius ** spec15.exponent)[:3]
    assert len(idx) == 3
    mu = DiscreteMeasure(region.nodes[idx], [0.2, 0.3, 0.5])
    res = sweep(spec15, mu, region, n_probes=0)
    w = res.solution.weights
    assert np.allclose(w[idx], mu.weights, rtol=1e-9)
    assert np.delete(w, idx).max() < 1e-12
    assert res.checks.mass_ok and res.checks.energy_ok
    assert res.checks.energy_out == pytest.approx(res.checks.energy_in, rel=1e-12)


def test_source_energy_takes_the_node_entry_on_a_node_and_the_smallest_entry_off_them():
    """The source energy is w^T K w over the source atoms, where an atom on a
    capped node takes that node's diagonal entry and an atom off the nodes
    the smallest entry, that of the largest radius; bit for bit."""
    spec15 = rl.KernelSpec(1.5, 3)
    region = rl.ball_complement_region(ORIGIN, 1.0, 250, spec15)
    diag = region.gram(spec15).entries.diagonal()
    i = int(np.flatnonzero(diag > region.reg_radius ** spec15.exponent)[0])
    points = np.array([region.nodes[i], [0.1, 0.2, -0.3]])
    mu = DiscreteMeasure(points, [0.4, 0.6])
    res = sweep(spec15, mu, region, n_probes=0)
    K = cdist(points, points)
    np.fill_diagonal(K, 1.0)
    K **= spec15.exponent
    np.fill_diagonal(K, [diag[i], diag.min()])
    assert diag[i] > diag.min()
    assert res.checks.energy_in == float(mu.weights @ (K @ mu.weights))


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_an_off_node_atom_of_a_union_takes_its_nearest_parts_entry(alpha):
    """A ball of radius 1.9 joined with a cloud at 1e8 of spacing ~1e3: a
    charge by the ball takes the uncapped entry of a ball node's radius, not
    the cloud's far smaller one, so its energy is the one the ball alone
    gives it, and the swept energy stays below it."""
    spec = rl.KernelSpec(alpha, 3)
    ball = rl.ball_region(ORIGIN, 1.9, 300, spec)
    cloud = rl.cloud_region(rl.fibonacci_sphere(50, 1e4, (1e8, 0.0, 0.0)), spec)
    mu = rl.dirac([2.5, 0.0, 0.0])
    checks = sweep(spec, mu, rl.union_region([ball, cloud])).checks
    assert checks.energy_ok
    assert checks.energy_in == sweep(spec, mu, ball).checks.energy_in


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 3e-2])
def test_a_charge_just_off_a_node_sweeps_about_its_mass(spec, eps):
    """A unit charge at node * (1 - eps) on the N=500 unit sphere, outside
    the node's h_min: each kernel entry is capped at its node's Gram
    diagonal, so the swept mass stays near 1, where the raw entries swept
    36 550, 36.5 and 1.218.  The excess left is discretization error."""
    region = rl.sphere_region(ORIGIN, 1.0, 500, spec)
    x = region.nodes[0] * (1.0 - eps)
    assert region.on_node(x[None])[0] == -1
    assert sweep(spec, dirac(x), region).checks.mass_out == pytest.approx(1.0, abs=0.02)


def test_sweep_many_builds_no_kd_tree(spec, ball500, monkeypatch):
    """Swept measures live on region nodes, which are distinct by
    construction, so building them queries no KD-tree; they still equal
    the measures the checking constructor builds."""
    import rieszlab.core as core

    ball500.gram(spec)
    trees = []
    tree = core.cKDTree

    def counting(*args, **kwargs):
        trees.append(1)
        return tree(*args, **kwargs)

    monkeypatch.setattr(core, "cKDTree", counting)
    rng = np.random.default_rng(19)
    sources = [dirac((1.5 + rng.random()) * d / np.linalg.norm(d)) for d in rng.normal(size=(20, 3))]
    results = sweep_many(spec, sources, ball500)
    assert trees == []
    for res in results:
        checked = DiscreteMeasure(res.swept.points, res.swept.weights)
        assert np.array_equal(res.swept.points, checked.points)
        assert np.array_equal(res.swept.weights, checked.weights)
    assert len(trees) == len(results)


def test_trusted_measure_keeps_weight_checks():
    pts = np.eye(3)
    with pytest.raises(ValueError):
        DiscreteMeasure._on_distinct_nodes(pts, [1.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure._on_distinct_nodes(pts, [1.0, -1.0, 1.0])


def test_swept_potentials_match_potential_at():
    """Each column equals potential_at of its swept measure bit for bit, on
    full supports and on a partial one: a node-supported source is a fixed
    point of sweeping, so its swept support is three nodes."""
    spec15 = rl.KernelSpec(1.5, 3)
    region = rl.ball_region(ORIGIN, 1.0, 300, spec15)
    sources = [
        dirac(2.0 * E1),
        DiscreteMeasure(region.nodes[[3, 77, 201]], [0.2, 0.3, 0.5]),
        dirac(np.array([0.0, -1.5, 1.5])),
    ]
    results = sweep_many(spec15, sources, region)
    assert not (results[1].solution.weights > 0.0).all()
    rng = np.random.default_rng(20)
    X = rng.normal(size=(25, 3))
    X *= (1.5 + rng.random((25, 1))) / np.linalg.norm(X, axis=1, keepdims=True)
    pots = rl.swept_potentials(spec15, results, region, X)
    for res, col in zip(results, pots.T):
        assert np.array_equal(col, potential_at(spec15, res.swept, X))


def test_swept_potentials_reject_points_on_region_nodes(spec, ball500):
    (res,) = sweep_many(spec, [dirac(2.0 * E1)], ball500)
    with pytest.raises(rl.RieszLabError):
        rl.swept_potentials(spec, [res], ball500, ball500.nodes[:3])
