import dataclasses

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rieszlab as rl
from rieszlab import (
    DiscreteMeasure,
    GreenKernel,
    NodesOutsideDomain,
    PointOutsideDomain,
    dirac,
    green_eval,
    green_gram,
    green_potential,
    green_values,
    verify_domination,
    verify_energy_decomposition,
)

ORIGIN = np.zeros(3)
E1 = np.array([1.0, 0.0, 0.0])


def interior_points(rng, k, r_max=0.8, r_min=0.05):
    dirs = rng.normal(size=(k, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r_min + (r_max - r_min) * rng.random((k, 1))
    return dirs * radii


def test_green_values_against_closed_form(gk2000):
    """g(x, 0) = 1/|x| - 1 in the Newtonian unit ball."""
    for r in (0.25, 0.5, 0.75):
        val = green_eval(gk2000, r * E1, ORIGIN)
        exact = 1.0 / r - 1.0
        assert abs(val - exact) / exact < 0.02, (r, val, exact)


def test_green_near_boundary_dies_off(gk2000):
    val = green_eval(gk2000, 0.95 * E1, ORIGIN)
    exact = 1.0 / 0.95 - 1.0
    assert abs(val - exact) / exact < 0.10
    assert val < 0.06


def test_green_off_center_pole(gk2000):
    """Closed form for a general pair via the sphere image charge."""
    x = np.array([0.3, 0.2, -0.1])
    y = np.array([-0.4, 0.1, 0.35])
    ny = np.linalg.norm(y)
    exact = 1.0 / np.linalg.norm(x - y) - 1.0 / (
        ny * np.linalg.norm(x - y / ny**2)
    )
    assert abs(green_eval(gk2000, x, y) - exact) / exact < 0.02


def test_green_diagonal_is_infinite(gk2000):
    assert green_eval(gk2000, 0.3 * E1, 0.3 * E1) == np.inf


def test_green_symmetry(gk2000):
    rng = np.random.default_rng(31)
    for _ in range(5):
        x, y = interior_points(rng, 2)
        a = green_eval(gk2000, x, y)
        b = green_eval(gk2000, y, x)
        assert abs(a - b) / max(a, b) < 0.02


def test_green_positive_inside(gk2000):
    rng = np.random.default_rng(32)
    X = interior_points(rng, 20)
    vals = green_values(gk2000, np.array([0.2, -0.3, 0.1]), X)
    assert (vals > 0.0).all()


def test_green_rejects_outside_points(gk2000):
    with pytest.raises(PointOutsideDomain):
        green_eval(gk2000, 2.0 * E1, ORIGIN)
    with pytest.raises(PointOutsideDomain):
        green_values(gk2000, 1.5 * E1, np.array([[0.1, 0, 0]]))


def test_green_rejects_an_evaluation_point_within_h_min_of_a_node(spec, complement500):
    """A point 1.5e-9 inside a node of the N=500 unit-ball complement passes
    the domain test but lies within h_min (3.46e-9) of the node, so it sits
    on A: it raises, where its Green value was once about -1.1e6."""
    gk = GreenKernel(spec, complement500)
    z = complement500.nodes[0]
    x = z * (1.0 - 1.5e-9)
    assert gk.domain_contains(x).all()
    assert np.linalg.norm(x - z) < complement500.h_min == pytest.approx(3.46e-9, rel=1e-3)
    with pytest.raises(PointOutsideDomain, match="an evaluation point sits on a region node"):
        green_eval(gk, x, [0.3, 0.0, 0.0])


def test_green_potential_single_atom_matches_values(gk2000):
    rng = np.random.default_rng(33)
    X = interior_points(rng, 10)
    y = np.array([0.1, 0.4, -0.3])
    out = green_potential(gk2000, dirac(y, 2.0), X)
    direct = 2.0 * green_values(gk2000, y, X)
    assert np.array_equal(out, direct)


def test_green_potential_route_gap(gk2000):
    rng = np.random.default_rng(34)
    nu = DiscreteMeasure(interior_points(rng, 4, r_max=0.6), rng.random(4) + 0.5)
    X = interior_points(rng, 8)
    vals = green_potential(gk2000, nu, X)
    # the whole-measure route: sweep nu at once and subtract its potential
    swept = rl.sweep_signed(gk2000.spec, nu, gk2000.region, tol=gk2000.tol).swept
    alt = rl.potential_at(gk2000.spec, nu, X) - rl.potential_at(gk2000.spec, swept, X)
    route_gap = float(np.max(np.abs(vals - alt) / np.abs(vals)))
    # the atomwise and whole-measure routes agree when nothing clips
    assert route_gap < 1e-8


def test_energy_decomposition_assembles_the_free_gram_once(gk2000, monkeypatch):
    import rieszlab.regions as regions

    gk2000.region.gram(gk2000.spec)
    calls = []
    real = regions._assemble_distinct

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "_assemble_distinct", counting)
    rng = np.random.default_rng(38)
    nu = DiscreteMeasure(interior_points(rng, 6, r_max=0.6), rng.random(6) + 0.5)
    out = verify_energy_decomposition(gk2000, nu)
    assert len(calls) == 1
    assert out["rel_gap"] < 1e-8


def test_energy_decomposition_needs_two_atoms(gk2000):
    with pytest.raises(ValueError, match="energy decomposition needs at least two atoms"):
        verify_energy_decomposition(gk2000, dirac([0.2, 0.0, 0.0]))


def test_energy_decomposition_rejects_atoms_off_the_domain(gk2000):
    nu = DiscreteMeasure([[0.2, 0.0, 0.0], [1.5, 0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(NodesOutsideDomain):
        verify_energy_decomposition(gk2000, nu)


def test_energy_decomposition_rejects_an_off_domain_atom_before_any_solve(gk2000, monkeypatch):
    import rieszlab.green as green

    def no_solve(*args, **kwargs):
        raise AssertionError("the batch solve ran before the domain check")

    monkeypatch.setattr(green, "_sweep_batch", no_solve)
    nu = DiscreteMeasure([[0.2, 0.0, 0.0], [1.5, 0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(NodesOutsideDomain):
        verify_energy_decomposition(gk2000, nu)


@pytest.mark.parametrize("name", ["spec", "region", "tol"])
def test_green_kernel_inputs_cannot_be_reassigned(gk2000, name):
    """The guard checks a kernel's inputs once, at construction; assigning
    one afterwards raises, so a bad tolerance cannot reach a sweep.  The
    kernel compares by identity, and its tolerance is keyword-only."""
    gk = GreenKernel(gk2000.spec, gk2000.region)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(gk, name, float("nan"))
    assert gk.tol == 1e-10
    assert gk == gk and gk != GreenKernel(gk.spec, gk.region)
    with pytest.raises(TypeError):
        GreenKernel(gk.spec, gk.region, 1e-7)


def test_green_equilibrium_solves_at_the_kernel_tolerance(spec, gk2000, monkeypatch):
    import rieszlab.equilibrium as equilibrium

    tols = []
    real = equilibrium.solve_nonneg

    def recording(gram, b, tol=1e-10):
        tols.append(tol)
        return real(gram, b, tol)

    monkeypatch.setattr(equilibrium, "solve_nonneg", recording)
    gk = GreenKernel(spec, gk2000.region, tol=1e-7)
    rl.green_equilibrium(gk, rl.sphere_region(ORIGIN, 0.5, 60, spec))
    assert tols == [1e-7]


def test_green_equilibrium_of_a_two_scale_compact(spec, gk2000):
    """A compact whose node spacing has two scales gets the free Gram of
    its region, with the region's regularization radii, so its Green Gram
    passes the condition check where one uniform radius fails it."""
    f = rl.union_region([
        rl.sphere_region(ORIGIN, 0.5, 40, spec),
        rl.sphere_region([0.0, 0.0, -0.2], 0.02, 40, spec),
    ])
    eq = rl.green_equilibrium(gk2000, f)
    assert eq.solution.converged
    assert eq.node_potential_min == pytest.approx(1.0, abs=1e-9)
    assert eq.node_potential_max == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < eq.capacity < 1.0  # the Green capacity of the 0.5-sphere is 1


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_union_sweep_restricted_to_f_is_the_green_sweep(alpha):
    """The Green sweep of mu onto F in D, the complement of A, is the Riesz
    sweep of mu onto F u A restricted to F: block elimination of the union's
    Gram, which holds because the union keeps each part's own diagonal."""
    spec = rl.KernelSpec(alpha, 3)
    a = rl.ball_complement_region(ORIGIN, 1.0, 1000, spec)
    f = rl.sphere_region(ORIGIN, 0.5, 200, spec)
    mu = dirac([0.75, 0.1, 0.0])
    gk = GreenKernel(spec, a)
    (swept,) = rl.sweep_many(spec, [mu], rl.union_region([f, a]))
    w = swept.solution.weights[: f.n_nodes]
    green = rl.solve_nonneg(green_gram(gk, f.nodes), green_potential(gk, mu, f.nodes)).weights
    assert np.abs(w - green).max() <= 1e-13 * green.max()


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_green_checks_reject_a_tolerance_that_is_not_finite_and_nonnegative(gk2000, value):
    """A NaN tolerance would make verify_domination's precondition fail, so
    it would report a vacuous pass for any measures."""
    points = [[0.2, 0.0, 0.0], [0.0, 0.3, 0.0]]
    mu, nu = DiscreteMeasure(points, [1.0, 1.0]), DiscreteMeasure(points, [2.0, 2.0])
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        verify_domination(gk2000, mu, nu, tol=value)
    f = rl.sphere_region(ORIGIN, 0.5, 40, gk2000.spec)
    with pytest.raises(ValueError, match="slack must be finite and nonnegative"):
        rl.verify_green_minimality(gk2000, f, rl.green_equilibrium(gk2000, f), slack=value)


def test_green_gram_of_a_single_node_raises(gk2000):
    with pytest.raises(ValueError):
        green_gram(gk2000, [[0.2, 0.0, 0.0]])


def test_green_gram_positive_definite(spec, gk2000):
    rng = np.random.default_rng(35)
    nodes = interior_points(rng, 100)
    g = green_gram(gk2000, nodes)
    eigs = np.linalg.eigvalsh(g.entries)
    assert eigs.min() > 0.0
    # entries are the symmetrized pointwise kernel values off the diagonal
    i, j = 3, 77
    sym = 0.5 * (
        green_eval(gk2000, nodes[i], nodes[j])
        + green_eval(gk2000, nodes[j], nodes[i])
    )
    assert g.entries[i, j] == pytest.approx(sym, rel=1e-10)


def test_green_gram_matches_per_pole_sweeps(spec, gk2000):
    """The batched Green Gram equals, bit for bit, one assembled from one
    sweep per pole."""
    rng = np.random.default_rng(37)
    nodes = interior_points(rng, 12)
    C = np.empty((12, 12))
    for j in range(12):
        comp = rl.sweep_many(spec, [dirac(nodes[j])], gk2000.region)[0].swept
        C[:, j] = rl.potential_at(spec, comp, nodes)
    expected = rl.cloud_region(nodes, spec).gram(spec).entries - 0.5 * (C + C.T)
    assert np.array_equal(green_gram(gk2000, nodes).entries, expected)


def test_green_gram_is_built_from_its_own_pole_batch():
    """At α=1.5 on the n=500 ball complement some interior poles' sweeps
    pivot, so their columns take the GEMVs over a partial support.  The
    Green Gram equals, bit for bit, one assembled from the potentials of the
    swept measures of one batch of all its poles."""
    spec15 = rl.KernelSpec(1.5, 3)
    region = rl.ball_complement_region(ORIGIN, 1.0, 500, spec15)
    nodes = interior_points(np.random.default_rng(37), 12)
    results = rl.sweep_many(spec15, [dirac(p) for p in nodes], region)
    assert max(res.solution.iterations for res in results) > 1
    C = np.stack([rl.potential_at(spec15, res.swept, nodes) for res in results], axis=1)
    expected = rl.cloud_region(nodes, spec15).gram(spec15).entries - 0.5 * (C + C.T)
    assert np.array_equal(green_gram(GreenKernel(spec15, region), nodes).entries, expected)


@pytest.mark.parametrize("r, m, capacity", [(0.5, 200, 0.9794919513482756), (0.3, 100, 0.4192770444179198)])
def test_green_gram_is_the_green_equilibrium_gram(spec, gk2000, r, m, capacity):
    """A node set has one Green Gram: green_gram over a region's nodes
    equals, bit for bit, the Gram green_equilibrium builds over the region."""
    f = rl.sphere_region(ORIGIN, r, m, spec)
    eq = rl.green_equilibrium(gk2000, f)
    assert np.array_equal(green_gram(gk2000, f.nodes).entries, eq.gram.entries)
    assert eq.capacity == pytest.approx(capacity, rel=1e-12)  # exact r / (1 - r)


def test_green_verifiers_build_one_kd_tree(gk2000, monkeypatch):
    """The energy decomposition and the domination check each build one
    KD-tree, that of the region over the measure's atoms."""
    import rieszlab.core as core
    import rieszlab.regions as regions

    rng = np.random.default_rng(38)
    nu = DiscreteMeasure(interior_points(rng, 6, r_max=0.6), rng.random(6) + 0.5)
    mu = nu.scaled(0.5)
    trees = []
    tree = core.cKDTree

    def counting(*args, **kwargs):
        trees.append(1)
        return tree(*args, **kwargs)

    monkeypatch.setattr(core, "cKDTree", counting)
    monkeypatch.setattr(regions, "cKDTree", counting)
    verify_energy_decomposition(gk2000, nu)
    assert len(trees) == 1
    verify_domination(gk2000, mu, nu)
    assert len(trees) == 2


def test_green_gram_rejects_outside_nodes(gk2000):
    nodes = np.array([[0.2, 0, 0], [3.0, 0, 0]])
    with pytest.raises(NodesOutsideDomain):
        green_gram(gk2000, nodes)


def test_green_gram_rejects_a_node_within_h_min_of_a_region_node(spec, complement500):
    """A Green Gram reads its poles' kernel rows, where a pole within h_min of
    a region node sits on it; such a node is not strictly inside the domain,
    though the shape does not contain it."""
    region = complement500
    z = region.nodes[0]
    point = z * (1.0 - 1.5e-9)
    assert not region.contains(point[None, :])[0]
    assert np.linalg.norm(point - z) < region.h_min
    nodes = np.concatenate([point[None, :], interior_points(np.random.default_rng(42), 4)])
    with pytest.raises(NodesOutsideDomain):
        green_gram(GreenKernel(spec, region), nodes)


@pytest.mark.parametrize("d", [0.02, 1e-3])
def test_green_gram_rejects_a_node_that_makes_it_indefinite(spec, complement500, d):
    """A node beside a region node, farther than h_min but much nearer than
    the spacing, makes the Green Gram indefinite (first diagonal entry -82.7
    at d = 0.02); green_gram raises instead of returning it."""
    z = complement500.nodes[0]
    nodes = np.concatenate([(z * (1.0 - d))[None, :], interior_points(np.random.default_rng(42), 4)])
    with pytest.raises(rl.IllConditioned):
        green_gram(GreenKernel(spec, complement500), nodes)


@pytest.mark.parametrize(
    "call", ["green_equilibrium", "green_gram", "energy_decomposition", "domination",
             "domination_by_nu"],
)
def test_each_green_gram_builds_one_region_block(spec, gk2000, monkeypatch, call):
    """A Green Gram reads the kernel rows of its own pole batch: each call
    builds one kernel block against the region nodes, that of the sweeps."""
    import rieszlab.balayage as balayage
    import rieszlab.core as core

    nodes = gk2000.region.nodes
    blocks = []

    def counting(X, Y, *args, **kwargs):
        if Y.shape == nodes.shape and np.array_equal(Y, nodes):
            blocks.append(len(X))
        return cdist(X, Y, *args, **kwargs)

    monkeypatch.setattr(core, "cdist", counting)
    monkeypatch.setattr(balayage, "cdist", counting, raising=False)
    rng = np.random.default_rng(43)
    mu = DiscreteMeasure(interior_points(rng, 6, r_max=0.6), rng.random(6) + 0.5)
    nu = DiscreteMeasure(interior_points(rng, 5, r_max=0.6), rng.random(5) + 0.5)
    if call == "green_equilibrium":
        rl.green_equilibrium(gk2000, rl.sphere_region(ORIGIN, 0.5, 60, spec))
    elif call == "green_gram":
        green_gram(gk2000, mu.points)
    elif call == "energy_decomposition":
        verify_energy_decomposition(gk2000, mu)
    elif call == "domination":
        verify_domination(gk2000, mu, None, c=1.0, n_probes=0)
    else:
        verify_domination(gk2000, mu, nu, n_probes=0)
    assert len(blocks) == 1


def test_energy_decomposition_exact_when_unconstrained(spec, gk2000):
    rng = np.random.default_rng(36)
    nu = DiscreteMeasure(interior_points(rng, 6), rng.random(6) + 0.2)
    out = verify_energy_decomposition(gk2000, nu)
    # kappa-energy = green-energy + energy of the swept part
    assert out["rel_gap"] < 1e-8
    assert out["green_energy"] > 0.0
    assert out["swept_energy"] > 0.0


def test_domination_scaled_copy(gk2000):
    rng = np.random.default_rng(37)
    nu = DiscreteMeasure(interior_points(rng, 5, r_max=0.6), rng.random(5) + 0.5)
    mu = nu.scaled(0.5)
    out = verify_domination(gk2000, mu, nu)
    assert not out["vacuous"]
    assert out["ok"]
    assert out["max_violation"] <= 0.02
    assert out["mass_dominated"] == pytest.approx(0.5 * out["mass_dominating"])


def test_domination_vacuous_when_precondition_fails(gk2000):
    rng = np.random.default_rng(38)
    mu = DiscreteMeasure(
        interior_points(rng, 4, r_max=0.4), np.full(4, 5.0)
    )
    nu = DiscreteMeasure(
        -interior_points(rng, 4, r_max=0.4, r_min=0.3), np.full(4, 0.001)
    )
    out = verify_domination(gk2000, mu, nu)
    assert out["vacuous"]
    assert not out["precondition_ok"]
    assert out["ok"]  # vacuously


def test_domination_by_one_atom_is_vacuous(spec, complement500, monkeypatch):
    """One atom has no Green Gram over its support and an infinite potential
    at itself, so the precondition fails and the check is vacuous, whatever
    the probes show."""
    import rieszlab.green as green

    def no_gram(*args, **kwargs):
        raise AssertionError("built a Green Gram over one atom")

    monkeypatch.setattr(green, "_green_gram", no_gram)
    out = verify_domination(GreenKernel(spec, complement500), dirac([0.2, 0.0, 0.0]))
    assert out["precondition_gap"] == np.inf
    assert not out["precondition_ok"]
    assert out["vacuous"] and out["ok"]
    assert out["max_violation"] > 0.02  # the probes alone would fail the check


def test_domination_of_one_atom_of_nu_is_vacuous(gk2000):
    """mu a Dirac at one of nu's atoms: mu's self-potential and nu's
    potential there are both infinite, and the gap is +inf, not inf - inf."""
    rng = np.random.default_rng(37)
    nu = DiscreteMeasure(interior_points(rng, 5, r_max=0.6), rng.random(5) + 0.5)
    out = verify_domination(gk2000, dirac(nu.points[0]), nu)
    assert out["precondition_gap"] == np.inf
    assert out["vacuous"] and not out["precondition_ok"]


def test_domination_on_disjoint_supports(spec, gk2000):
    """Half the Green equilibrium of S(0, 0.3) against that of S(0, 0.5):
    Green potential 1/2 against 1 on the inner sphere, a finite negative
    gap, and no probe where the bound fails."""
    nu = rl.green_equilibrium(gk2000, rl.sphere_region(ORIGIN, 0.5, 200, spec)).gamma
    mu = rl.green_equilibrium(gk2000, rl.sphere_region(ORIGIN, 0.3, 100, spec)).gamma.scaled(0.5)
    out = verify_domination(gk2000, mu, nu)
    assert -1.0 < out["precondition_gap"] < 0.0
    assert not out["vacuous"] and out["ok"]
    assert out["max_violation"] < 0.0
    assert out["n_probes"] > 100


def test_domination_against_constant(gk2000):
    """A measure whose Green potential stays below a constant on its own
    support stays below it everywhere."""
    f = rl.sphere_region(ORIGIN, 0.5, 200, rl.KernelSpec(2.0, 3))
    eq = rl.green_equilibrium(gk2000, f)
    out = verify_domination(gk2000, eq.gamma.scaled(0.9), nu=None, c=1.0)
    assert not out["vacuous"]
    assert out["ok"]


def test_faraway_boundary_reduces_to_riesz(spec):
    """Pushing the complement out makes g converge to the plain kernel."""
    comp = rl.ball_complement_region(ORIGIN, 1000.0, 400, spec)
    gk = GreenKernel(spec, comp)
    rng = np.random.default_rng(39)
    X = interior_points(rng, 6, r_max=0.9)
    y = np.array([0.3, -0.2, 0.4])
    g_vals = green_values(gk, y, X)
    k_vals = rl.potential_at(spec, dirac(y), X)
    assert np.max(np.abs(g_vals - k_vals) / k_vals) < 0.01


def test_green_energy_monotone_under_exhaustion(spec, gk2000):
    """Green energies of one measure grow as the node set of its
    equilibrium problem grows (capacities are monotone)."""
    pts = rl.fibonacci_sphere(360, 0.5)
    reg = 0.02
    f_small = rl.cloud_region(pts[:180], spec, reg_radius=reg)
    f_big = rl.cloud_region(pts, spec, reg_radius=reg)
    c_small = rl.green_equilibrium(gk2000, f_small).capacity
    c_big = rl.green_equilibrium(gk2000, f_big).capacity
    assert c_big >= c_small - 1e-12


@pytest.fixture(scope="module")
def gk15_ball():
    """α=1.5 Green kernel of the domain outside the unit ball, where the
    kernel power takes the general pow path rather than a reciprocal."""
    spec15 = rl.KernelSpec(1.5, 3)
    return GreenKernel(spec15, rl.ball_region(ORIGIN, 1.0, 300, spec15))


def test_green_gram_matches_per_pole_sweeps_alpha15(gk15_ball):
    spec15, region = gk15_ball.spec, gk15_ball.region
    rng = np.random.default_rng(40)
    nodes = interior_points(rng, 12, r_max=3.0, r_min=1.3)
    C = np.empty((12, 12))
    for j in range(12):
        comp = rl.sweep_many(spec15, [dirac(nodes[j])], region)[0].swept
        C[:, j] = rl.potential_at(spec15, comp, nodes)
    expected = rl.cloud_region(nodes, spec15).gram(spec15).entries - 0.5 * (C + C.T)
    assert np.array_equal(green_gram(gk15_ball, nodes).entries, expected)


def test_green_potential_matches_per_atom_loop_alpha15(gk15_ball):
    spec15, region = gk15_ball.spec, gk15_ball.region
    rng = np.random.default_rng(41)
    nu = DiscreteMeasure(interior_points(rng, 5, r_max=2.0, r_min=1.3), rng.random(5) + 0.5)
    X = interior_points(rng, 20, r_max=3.0, r_min=1.3)
    expected = rl.potential_at(spec15, nu, X)
    for y, weight in zip(nu.points, nu.weights):
        comp = rl.sweep_many(spec15, [dirac(y)], region)[0].swept
        expected -= weight * rl.potential_at(spec15, comp, X)
    assert np.array_equal(green_potential(gk15_ball, nu, X), expected)


def test_domination_sweeps_each_measure_once(gk2000, monkeypatch):
    import rieszlab.green as green

    calls = []
    batched = green._sweep_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return batched(*args, **kwargs)

    monkeypatch.setattr(green, "_sweep_batch", counting)
    rng = np.random.default_rng(37)
    nu = DiscreteMeasure(interior_points(rng, 5, r_max=0.6), rng.random(5) + 0.5)
    verify_domination(gk2000, nu.scaled(0.5), nu)
    # Both measures' atoms share one batch.
    assert len(calls) == 1


def test_green_gram_leaves_solver_diagnostics_pending(gk2000, monkeypatch):
    """No KKT residual is computed for a Green Gram until one is read."""
    import rieszlab.balayage as balayage
    import rieszlab.solver as solver

    solutions = []
    batched = balayage.solve_nonneg_many

    def keeping(*args, **kwargs):
        sols = batched(*args, **kwargs)
        solutions.extend(sols)
        return sols

    calls = []
    residual = solver._nonneg_kkt_residual

    def counting(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(balayage, "solve_nonneg_many", keeping)
    monkeypatch.setattr(solver, "_nonneg_kkt_residual", counting)
    rng = np.random.default_rng(38)
    green_gram(gk2000, interior_points(rng, 24))
    assert len(solutions) == 24
    assert calls == []
    first = solutions[5].kkt_residual
    assert len(calls) == 1
    assert solutions[5].kkt_residual == first
    assert np.isfinite(solutions[5].objective)
    assert len(calls) == 1


def _energy_decomposition_reference(gk, nu):
    """The decomposition as computed with one sweep batch per quantity."""
    from rieszlab.green import _green_gram

    F = rl.cloud_region(nu.points, gk.spec)
    ggram = _green_gram(gk, F)
    e_green = float(nu.weights @ (ggram.entries @ nu.weights))
    e_free = float(nu.weights @ (F.gram(gk.spec).entries @ nu.weights))
    v = rl.sweep_signed(gk.spec, nu, gk.region, tol=gk.tol).weights
    e_swept = float(v @ (gk.region.gram(gk.spec).entries @ v))
    rhs = e_free - e_swept
    gap = abs(e_green - rhs) / max(abs(e_green), abs(rhs), np.finfo(float).tiny)
    return {
        "green_energy": e_green,
        "free_energy": e_free,
        "swept_energy": e_swept,
        "rel_gap": float(gap),
    }


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("which", ["gk2000", "gk15_ball"])
def test_energy_decomposition_equals_separate_sweeps(which, signed, request):
    gk = request.getfixturevalue(which)
    rng = np.random.default_rng(43)
    r_min, r_max = (0.05, 0.7) if which == "gk2000" else (1.3, 2.5)
    for k in (2, 5, 9):
        points = interior_points(rng, k, r_max=r_max, r_min=r_min)
        weights = rng.random(k) + 0.2
        if signed:
            weights[::2] *= -1.0
        nu = DiscreteMeasure(points, weights, signed=signed)
        assert verify_energy_decomposition(gk, nu) == _energy_decomposition_reference(gk, nu)
