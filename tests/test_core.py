import json

import numpy as np
import pytest

import rieszlab as rl
from rieszlab import (
    DegenerateNodes,
    DimensionMismatch,
    DiscreteMeasure,
    GramMatrix,
    IndeterminateValue,
    KernelSpec,
    assemble_gram,
    cross_energy,
    dirac,
    energy,
    potential,
    potential_at,
    riesz_kernel,
)

E1 = np.array([1.0, 0.0, 0.0])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0, 3)
    with pytest.raises(ValueError):
        KernelSpec(2.5, 3)
    with pytest.raises(ValueError):
        KernelSpec(1.0, 2)
    s = KernelSpec(2.0, 3)
    assert s.exponent == -1.0
    assert KernelSpec(0.5, 4).exponent == 0.5 - 4


def test_kernel_values():
    s = KernelSpec(2.0, 3)
    assert riesz_kernel(s, np.zeros(3), E1) == 1.0
    assert riesz_kernel(s, np.zeros(3), 2 * E1) == 0.5
    s1 = KernelSpec(1.0, 3)
    assert riesz_kernel(s1, np.zeros(3), 2 * E1) == pytest.approx(0.25)
    s5 = KernelSpec(2.0, 5)
    assert riesz_kernel(s5, np.zeros(5), 2 * np.eye(5)[0]) == pytest.approx(2.0 ** -3)


def test_kernel_coincident_points_diverge():
    s = KernelSpec(2.0, 3)
    assert riesz_kernel(s, E1, E1) == np.inf


def test_measure_basics():
    mu = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [0.25, 0.75])
    assert mu.n_points == 2
    assert mu.dim == 3
    assert mu.total_mass == 1.0
    assert not mu.signed
    half = mu.scaled(0.5)
    assert half.total_mass == 0.5
    empty = DiscreteMeasure.empty(3)
    assert empty.n_points == 0 and empty.total_mass == 0.0


def test_measure_immutable():
    mu = dirac(E1)
    with pytest.raises(AttributeError):
        mu.weights = np.array([2.0])
    with pytest.raises((ValueError, RuntimeError)):
        mu.points[0, 0] = 5.0


def test_hahn_split():
    mu = DiscreteMeasure(
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]], [1.0, -0.5, 2.0], signed=True
    )
    pos, neg = mu.positive_part(), mu.negative_part()
    assert pos.total_mass == 3.0
    assert neg.total_mass == 0.5
    assert np.all(neg.weights > 0)
    # the two supports are disjoint
    assert not set(map(tuple, pos.points)) & set(map(tuple, neg.points))


def test_measure_json_round_trip():
    mu = DiscreteMeasure([[0, 0, 0], [1, 2, 3]], [1.5, -2.5], signed=True)
    back = DiscreteMeasure.from_json(mu.to_json())
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    assert back.signed


def test_measure_json_rejects_unknown_key():
    doc = json.loads(dirac(E1).to_json())
    doc["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        DiscreteMeasure.from_json_dict(doc)


def test_potential_batch_matches_manual_sum():
    s = KernelSpec(1.5, 3)
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=(6, 3)), rng.random(6))
    X = rng.normal(size=(4, 3)) + 5.0
    vals = potential_at(s, mu, X)
    for i, x in enumerate(X):
        manual = sum(
            w * riesz_kernel(s, x, p) for p, w in zip(mu.points, mu.weights)
        )
        assert vals[i] == pytest.approx(manual, rel=1e-14)


def test_potential_coincidence_rules():
    s = KernelSpec(2.0, 3)
    mu = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [1.0, -1.0], signed=True)
    assert potential(s, mu, np.zeros(3)) == np.inf
    assert potential(s, mu, E1) == -np.inf
    # a zero-weight atom contributes nothing even at coincidence
    flat = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [0.0, 1.0])
    assert potential(s, flat, np.zeros(3)) == 1.0


def test_measure_rejects_coincident_support():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0, 0, 0], [0, 0, 0.0]], [1.0, -1.0], signed=True)


def test_cross_energy_coincidence_rules(spec):
    mu = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [1.0, 1.0])
    nu_pos = dirac(np.zeros(3))
    assert cross_energy(spec, mu, nu_pos) == np.inf
    nu_neg = dirac(np.zeros(3), -1.0)
    assert cross_energy(spec, mu, nu_neg) == -np.inf
    mixed = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [1.0, -1.0], signed=True)
    with pytest.raises(IndeterminateValue):
        cross_energy(spec, mu, mixed)


def test_potential_dimension_mismatch():
    s = KernelSpec(2.0, 3)
    with pytest.raises(DimensionMismatch):
        potential_at(s, dirac(E1), np.zeros((1, 4)))


def test_energy_consistency_with_potential(spec):
    """energy(mu, nu) equals integrating mu's potential against nu."""
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.normal(size=(5, 3)), rng.random(5))
    nu = DiscreteMeasure(rng.normal(size=(4, 3)) + 10.0, rng.random(4))
    e = cross_energy(spec, mu, nu)
    via_pot = float(nu.weights @ potential_at(spec, mu, nu.points))
    assert e == pytest.approx(via_pot, rel=1e-12)


def test_energy_bilinear(spec):
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 3))
    w1, w2 = rng.random(5), rng.random(5)
    nu = DiscreteMeasure(rng.normal(size=(3, 3)) + 8.0, rng.random(3))
    a, b = 0.7, -1.3
    combo = DiscreteMeasure(pts, a * w1 + b * w2, signed=True)
    lhs = cross_energy(spec, combo, nu)
    rhs = a * cross_energy(spec, DiscreteMeasure(pts, w1), nu) + b * cross_energy(
        spec, DiscreteMeasure(pts, w2), nu
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sphere_potential_oracle(spec):
    """The uniform sphere measure's potential tends to m / max(|x|, r)."""
    probes = np.array([[2.0, 0, 0], [0, 3.0, 0], [0.3, 0, 0], [0, 0, 0.7]])
    expected = 1.0 / np.maximum(np.linalg.norm(probes, axis=1), 1.0)
    errs = []
    for n in (500, 2000):
        pts = rl.fibonacci_sphere(n, 1.0)
        mu = DiscreteMeasure(pts, np.full(n, 1.0 / n))
        vals = potential_at(spec, mu, probes)
        errs.append(np.max(np.abs(vals - expected) / expected))
    assert errs[1] < 1e-3
    assert errs[1] < errs[0]


def test_gram_two_node_example(spec):
    g = assemble_gram(spec, [[0, 0, 0], [1, 0, 0]], reg_radius=0.1)
    assert np.allclose(g.entries, [[10.0, 1.0], [1.0, 10.0]])


def test_gram_per_node_radii(spec):
    g = assemble_gram(spec, [[0, 0, 0], [1, 0, 0]], reg_radius=[0.1, 0.25])
    assert np.allclose(g.entries, [[10.0, 1.0], [1.0, 4.0]])
    assert g.reg_radius == 0.25  # nominal: the largest radius
    for bad in ([0.1], [0.1, 0.0], [0.1, np.nan]):
        with pytest.raises(ValueError):
            assemble_gram(spec, [[0, 0, 0], [1, 0, 0]], reg_radius=bad)


def test_gram_single_node():
    s = KernelSpec(1.0, 3)
    g = assemble_gram(s, [[0.0, 0.0, 0.0]], reg_radius=0.5)
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == pytest.approx(0.5 ** (1.0 - 3.0))


def test_gram_default_regularization(spec):
    # half the minimum nearest-neighbor spacing
    g = assemble_gram(spec, [[0, 0, 0], [1, 0, 0], [4, 0, 0]])
    assert g.reg_radius == pytest.approx(0.5)
    assert g.entries[0, 0] == pytest.approx(2.0)


def test_gram_symmetric_and_positive_definite(spec):
    rng = np.random.default_rng(11)
    nodes = rng.normal(size=(60, 3)) * 3.0
    g = assemble_gram(spec, nodes)
    assert np.max(np.abs(g.entries - g.entries.T)) == 0.0
    for _ in range(50):
        w = rng.normal(size=60)
        assert float(w @ (g.entries @ w)) > 0.0


def test_gram_rejects_coincident_nodes(spec):
    with pytest.raises(DegenerateNodes):
        assemble_gram(spec, [[0, 0, 0], [0, 0, 1e-15], [1, 0, 0]])


def test_gram_solve_and_condition(spec):
    rng = np.random.default_rng(2)
    nodes = rng.normal(size=(30, 3)) * 2.0
    g = assemble_gram(spec, nodes)
    b = rng.random(30)
    x = g.solve(b)
    assert np.allclose(g.entries @ x, b, rtol=1e-8, atol=1e-10)
    assert g.condition_estimate() >= 1.0


def test_gram_solve_rejects_non_finite_rhs(spec):
    g = assemble_gram(spec, np.random.default_rng(3).normal(size=(10, 3)))
    b = np.ones(10)
    b[4] = np.nan
    with pytest.raises(ValueError):
        g.solve(b)


def test_energy_quadratic_form(spec):
    g = assemble_gram(spec, [[0, 0, 0], [1, 0, 0]], reg_radius=0.1)
    w = np.array([1.0, 2.0])
    assert energy(g, w, w) == pytest.approx(10 + 4 + 40)
    assert energy(g, w, np.array([1.0, 0.0])) == pytest.approx(12.0)


def test_gram_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        GramMatrix(np.zeros((2, 3)), np.zeros((3, 3)), 0.1)
