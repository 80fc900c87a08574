import numpy as np
import pytest

import rieszlab as rl
from rieszlab import (
    GreenKernel,
    KernelSpec,
    green_equilibrium,
    riesz_equilibrium,
    verify_green_minimality,
)

ORIGIN = np.zeros(3)


def test_single_node_equilibrium(spec):
    reg = rl.cloud_region(np.zeros((1, 3)), spec, reg_radius=0.2)
    res = riesz_equilibrium(spec, reg)
    # capacity of a single regularized atom is h^(n - alpha)
    assert res.capacity == pytest.approx(0.2)
    assert res.gamma.total_mass == pytest.approx(0.2)
    assert res.node_potential_max == pytest.approx(1.0)


def test_two_node_equilibrium(spec):
    h, r = 0.1, 1.0
    reg = rl.cloud_region([[0, 0, 0], [r, 0, 0]], spec, reg_radius=h)
    res = riesz_equilibrium(spec, reg)
    # symmetric optimum: capacity = 2 / (1/h + 1/r)
    assert res.capacity == pytest.approx(2.0 / (1.0 / h + 1.0 / r))
    assert np.allclose(res.gamma.weights, res.capacity / 2.0)


def test_unit_ball_capacity(spec, ball2000):
    res = riesz_equilibrium(spec, ball2000, n_probes=100)
    assert abs(res.capacity - 1.0) < 0.01
    assert 0.98 <= res.node_potential_min <= res.node_potential_max <= 1.02
    assert res.probe_potential_max is not None
    assert res.probe_potential_max <= 1.02
    # equilibrium weights on the sphere are uniform up to discretization
    w = res.gamma.weights
    assert w.std() / w.mean() < 0.05


def test_capacity_scales_linearly_with_radius(spec):
    # cap(B(0, R)) = R for the Newtonian kernel
    reg = rl.ball_region(ORIGIN, 2.0, 800, spec)
    res = riesz_equilibrium(spec, reg)
    assert abs(res.capacity - 2.0) < 0.02


def test_capacity_monotone_under_node_growth(spec):
    pts = rl.fibonacci_sphere(600, 1.0)
    small = rl.cloud_region(pts[:300], spec, reg_radius=0.03)
    big = rl.cloud_region(pts, spec, reg_radius=0.03)
    c_small = riesz_equilibrium(spec, small).capacity
    c_big = riesz_equilibrium(spec, big).capacity
    assert c_big >= c_small - 1e-12


def test_equilibrium_probe_stats_optional(spec, ball500):
    res = riesz_equilibrium(spec, ball500)
    assert res.probe_potential_max is None
    assert res.probe_seed is None
    assert res.solution.converged


def test_green_equilibrium_half_sphere(spec, gk2000):
    f = rl.sphere_region(ORIGIN, 0.5, 400, spec)
    res = green_equilibrium(gk2000, f)
    # relative capacity of the half-radius sphere in the unit ball is 1
    assert abs(res.capacity - 1.0) < 0.02
    assert abs(res.node_potential_min - 1.0) < 0.02
    assert abs(res.node_potential_max - 1.0) < 0.02


def test_green_equilibrium_minimality(spec, gk2000):
    f = rl.sphere_region(ORIGIN, 0.5, 300, spec)
    res = green_equilibrium(gk2000, f)
    out = verify_green_minimality(gk2000, f, res, n_competitors=20, seed=99)
    assert out["ok"], out
    assert out["min_energy_ratio"] >= 1.0 - 1e-9


def test_green_minimality_needs_a_competitor(spec, gk2000):
    f = rl.sphere_region(ORIGIN, 0.5, 100, spec)
    res = green_equilibrium(gk2000, f)
    with pytest.raises(ValueError, match="n_competitors must be at least 1"):
        verify_green_minimality(gk2000, f, res, n_competitors=0)


@pytest.mark.parametrize("n_other", [100, 60], ids=["same-count", "other-count"])
def test_green_minimality_rejects_the_equilibrium_of_other_nodes(spec, gk2000, n_other):
    """A result built over another node set is refused by name, whether or not
    its node count matches; with another count numpy's matmul would raise."""
    res = green_equilibrium(gk2000, rl.sphere_region(ORIGIN, 0.5, 100, spec))
    other = rl.sphere_region(ORIGIN, 0.4, n_other, spec)
    message = "^result must be the Green equilibrium of f_region's nodes$"
    with pytest.raises(ValueError, match=message):
        verify_green_minimality(gk2000, other, res)


def test_green_minimality_below_unit_capacity(spec, gk2000, monkeypatch):
    """Competitor energies are compared with the capacity itself, which
    matters once the relative capacity is well below 1; the check reuses
    the Green Gram matrix of the equilibrium instead of building it again."""
    import rieszlab.green

    f = rl.sphere_region(ORIGIN, 0.32, 58, spec)
    res = green_equilibrium(gk2000, f)
    assert res.capacity < 0.6

    def no_rebuild(*args, **kwargs):
        raise AssertionError("green_gram called again")

    monkeypatch.setattr(rieszlab.green, "green_gram", no_rebuild)
    out = verify_green_minimality(gk2000, f, res, n_competitors=20)
    assert out["ok"], out
    assert out["min_energy_ratio"] == pytest.approx(1.62, abs=0.05)


def test_green_capacity_grows_with_set(spec, gk2000):
    small = rl.sphere_region(ORIGIN, 0.3, 250, spec)
    big = rl.sphere_region(ORIGIN, 0.6, 250, spec)
    c_small = green_equilibrium(gk2000, small).capacity
    c_big = green_equilibrium(gk2000, big).capacity
    assert c_big > c_small


def test_green_equilibrium_exceeds_riesz_capacity(spec, gk2000):
    """Relative capacity dominates the unrestricted one: the Green kernel
    is pointwise below the Riesz kernel, so energies are smaller."""
    f = rl.sphere_region(ORIGIN, 0.4, 300, spec)
    c_riesz = riesz_equilibrium(spec, f).capacity
    c_green = green_equilibrium(gk2000, f).capacity
    assert c_green > c_riesz


def test_subnewtonian_ball_capacity():
    """For alpha < 2 the ball capacity has a closed form."""
    import math

    alpha = 1.5
    s = KernelSpec(alpha, 3)
    # cap(B(0,1)) = Gamma((n-alpha)/2 + 1) * Gamma(alpha/2)
    #               / (Gamma(n/2) * Gamma(1 - alpha/2) ... )
    # Use the classical value via the Riesz formula:
    # c = 2^alpha * Gamma(alpha/2) * Gamma((n - alpha + 2) / 2)
    #     / (Gamma((n - alpha) / 2) * ... )
    # Rather than trust a transcription, pin against a refined run.
    coarse = riesz_equilibrium(s, rl.ball_region(ORIGIN, 1.0, 400, s)).capacity
    fine = riesz_equilibrium(s, rl.ball_region(ORIGIN, 1.0, 1200, s)).capacity
    assert abs(coarse - fine) / fine < 0.05
    assert 0.5 < fine < 1.5


def test_green_kernel_requires_complement_domain(spec, ball500):
    # a Green kernel needs the region to be the complement set A = D^c;
    # nodes of a plain ball still work geometrically, so just check the
    # domain predicate flips membership
    gk = GreenKernel(spec, rl.reinterpret_region(ball500, rl.BallComplement(ORIGIN, 1.0)))
    inside = np.array([[0.2, 0.0, 0.0]])
    outside = np.array([[3.0, 0.0, 0.0]])
    assert gk.domain_contains(inside)[0]
    assert not gk.domain_contains(outside)[0]


def test_green_equilibrium_releases_the_free_factor(spec, gk2000):
    """The free Gram keeps its entries but not its factor, which a later
    sweep onto the same region recomputes bit for bit."""
    f = rl.sphere_region(ORIGIN, 0.5, 200, spec)
    K = f.gram(spec)
    entries, factor = K.entries.copy(), K.cholesky()[0].copy()
    green_equilibrium(gk2000, f)
    assert f.gram(spec) is K
    assert K._chol is None
    assert np.array_equal(K.entries, entries)
    (swept,) = rl.sweep_many(spec, [rl.dirac(ORIGIN)], f)
    assert np.array_equal(K.cholesky()[0], factor)
    fresh = rl.sphere_region(ORIGIN, 0.5, 200, spec)
    (expected,) = rl.sweep_many(spec, [rl.dirac(ORIGIN)], fresh)
    assert np.array_equal(swept.solution.weights, expected.solution.weights)
