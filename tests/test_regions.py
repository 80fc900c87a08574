import numpy as np
import pytest
from scipy.spatial import cKDTree

import rieszlab as rl
from rieszlab import (
    Ball,
    BallComplement,
    HalfSpace,
    IllConditioned,
    KernelSpec,
    PointCloud,
    Region,
    SphereShell,
    UnionShape,
    assemble_gram,
    build_region,
    fibonacci_ball,
    fibonacci_disk,
    fibonacci_sphere,
    reinterpret_region,
    sample_points_off,
)
from rieszlab.regions import nearest_neighbor_spacing

ORIGIN = np.zeros(3)


def test_fibonacci_sphere_layout():
    pts = fibonacci_sphere(400, 2.0, (1.0, 0.0, 0.0))
    assert pts.shape == (400, 3)
    r = np.linalg.norm(pts - [1.0, 0.0, 0.0], axis=1)
    assert np.allclose(r, 2.0)
    # deterministic
    assert np.array_equal(pts, fibonacci_sphere(400, 2.0, (1.0, 0.0, 0.0)))


def test_fibonacci_sphere_is_well_spread():
    pts = fibonacci_sphere(500, 1.0)
    mn, mean = nearest_neighbor_spacing(pts)
    assert mn > 0.5 * mean  # no clumping


def test_fibonacci_ball_and_disk():
    b = fibonacci_ball(300, 1.5)
    assert b.shape == (300, 3)
    assert np.linalg.norm(b, axis=1).max() <= 1.5 + 1e-12
    d = fibonacci_disk(200, 2.0, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert d.shape == (200, 3)
    assert np.allclose(d[:, 2], 1.0)
    assert np.linalg.norm(d[:, :2], axis=1).max() <= 2.0 + 1e-12


def test_ball_region_newtonian_nodes_on_boundary(spec, ball500):
    r = np.linalg.norm(ball500.nodes, axis=1)
    assert np.allclose(r, 1.0)
    assert ball500.n_nodes == 500
    mn, mean = ball500.spacing()
    assert ball500.reg_radius == pytest.approx(0.24 * mean)


def test_ball_region_subnewtonian_has_interior_nodes():
    s = KernelSpec(1.5, 3)
    reg = rl.ball_region(ORIGIN, 1.0, 600, s)
    r = np.linalg.norm(reg.nodes, axis=1)
    assert (r < 0.999).sum() > 100
    assert r.max() <= 1.0 + 1e-12


def test_ball_complement_region_newtonian(spec, complement500):
    r = np.linalg.norm(complement500.nodes, axis=1)
    assert np.allclose(r, 1.0)  # boundary carries the whole sweep


def test_ball_complement_region_subnewtonian_reaches_out():
    s = KernelSpec(1.2, 3)
    reg = rl.ball_complement_region(ORIGIN, 1.0, 700, s)
    r = np.linalg.norm(reg.nodes, axis=1)
    assert r.min() >= 1.0 - 1e-12
    assert r.max() > 4.0


def test_sphere_region(spec):
    reg = rl.sphere_region([0.0, 1.0, 0.0], 0.5, 300, spec)
    r = np.linalg.norm(reg.nodes - [0.0, 1.0, 0.0], axis=1)
    assert np.allclose(r, 0.5)


def test_half_space_region(spec):
    n_hat = np.array([0.0, 0.0, 1.0])
    reg = rl.half_space_region(n_hat, 2.0, 400, spec)
    assert (reg.nodes @ n_hat >= 2.0 - 1e-9).all()


def test_region_rejects_outside_nodes():
    shape = Ball(ORIGIN, 1.0)
    with pytest.raises(ValueError):
        Region(shape, np.array([[0.0, 0.0, 2.0]]), 0.1)


def test_shape_membership():
    ball = Ball(ORIGIN, 1.0)
    comp = BallComplement(ORIGIN, 1.0)
    pts = np.array([[0.5, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
    assert list(ball.contains(pts)) == [True, False, True]
    assert list(comp.contains(pts)) == [False, True, True]
    hs = HalfSpace([1.0, 0.0, 0.0], 1.0)
    assert list(hs.contains(pts)) == [False, True, True]
    assert ball.bounded and not comp.bounded and not hs.bounded


def test_shell_nodes_respect_half_open_annulus(spec):
    y = np.array([1.0, 0.0, 0.0])  # a boundary point of the ball
    shape = Ball(ORIGIN, 1.0)
    nodes = shape.shell_nodes(y, 0.25, 0.5, 200)
    d = np.linalg.norm(nodes - y, axis=1)
    assert (d >= 0.25 - 1e-12).all() and (d < 0.5).all()
    assert shape.contains(nodes).all()


def test_shell_nodes_on_sphere_band(spec):
    shape = SphereShell(ORIGIN, 1.0)
    y = np.array([0.0, 0.0, 1.0])
    nodes = shape.shell_nodes(y, 0.3, 0.6, 150)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)
    d = np.linalg.norm(nodes - y, axis=1)
    assert (d >= 0.3 - 1e-12).all() and (d < 0.6).all()


def test_union_region_orders_and_allocates(spec):
    a = rl.sphere_region(ORIGIN, 1.0, 100, spec)
    b = rl.sphere_region(ORIGIN, 2.0, 400, spec)
    u = rl.union_region([a, b])
    assert u.n_nodes == 500
    assert np.array_equal(u.nodes[:100], a.nodes)
    assert u.contains(a.nodes).all() and u.contains(b.nodes).all()


def test_union_shape_node_budget_tracks_scale(spec):
    shape = UnionShape([SphereShell(ORIGIN, 1.0), SphereShell(ORIGIN, 2.0)])
    reg = build_region(shape, 500, spec)
    r = np.linalg.norm(reg.nodes, axis=1)
    inner = int((r < 1.5).sum())
    # areas scale like radius squared, so the split is about 1:4
    assert 60 <= inner <= 140


def test_point_cloud_region(spec):
    pts = fibonacci_ball(150, 1.0)
    reg = rl.cloud_region(pts, spec)
    assert np.array_equal(reg.nodes, pts)
    assert reg.contains(pts).all()
    assert not reg.contains(np.array([[5.0, 0.0, 0.0]]))[0]


def test_reinterpret_region_shares_gram(spec, ball500):
    comp = reinterpret_region(ball500, BallComplement(ORIGIN, 1.0))
    assert comp.nodes is ball500.nodes
    assert comp.gram(spec) is ball500.gram(spec)
    sph = reinterpret_region(ball500, SphereShell(ORIGIN, 1.0))
    assert sph.gram(spec) is ball500.gram(spec)


def test_reinterpret_region_validates_membership(ball500):
    with pytest.raises(ValueError):
        reinterpret_region(ball500, HalfSpace([0.0, 0.0, 1.0], 0.5))


def test_sample_points_off_is_deterministic_and_clear(spec, ball500):
    pts = sample_points_off(ball500, 64, seed=5)
    again = sample_points_off(ball500, 64, seed=5)
    assert np.array_equal(pts, again)
    assert len(pts) == 64
    assert not ball500.contains(pts).any()
    from scipy.spatial import cKDTree

    d, _ = cKDTree(ball500.nodes).query(pts)
    assert d.min() >= 3.0 * ball500.spacing()[1] - 1e-12


def test_sample_points_off_complement(spec, complement500):
    # off the closed complement means strictly inside the ball
    pts = sample_points_off(complement500, 32, seed=9)
    assert (np.linalg.norm(pts, axis=1) < 1.0).all()


def test_sample_points_off_raises_typed_error():
    # probes keep three mean spacings from the nodes; at n=150 that
    # standoff leaves no room in the hole of the unit-ball complement
    spec = rl.KernelSpec(2.0, 3)
    region = rl.ball_complement_region(ORIGIN, 1.0, 150, spec)
    with pytest.raises(rl.ProbeSamplingFailure, match="probe sampling failed"):
        sample_points_off(region, 100, 1)


def test_region_gram_cached(spec, ball500):
    assert ball500.gram(spec) is ball500.gram(spec)


def test_build_region_reg_override(spec):
    reg = rl.ball_region(ORIGIN, 1.0, 200, spec, reg_radius=0.05)
    assert reg.reg_radius == 0.05
    assert reg.gram(spec).entries[0, 0] == pytest.approx(20.0)


def test_uniform_gram_that_passes_is_kept_bitwise():
    """The radius is capped only when the uniform Gram fails its check: this
    alpha=1.5 ball has two nodes closer than twice the radius, and its
    uniform Gram passes, so it is kept entry for entry."""
    spec15 = KernelSpec(1.5, 3)
    region = rl.ball_region(ORIGIN, 1.0, 250, spec15)
    d_nn = cKDTree(region.nodes).query(region.nodes, k=2)[0][:, 1]
    assert (0.5 * d_nn < region.reg_radius).sum() == 2
    g = region.gram(spec15)
    uniform = assemble_gram(spec15, region.nodes, reg_radius=region.reg_radius)
    assert np.array_equal(g.entries, uniform.entries)
    assert g.reg_radius == region.reg_radius


def _catalog_region(kind, spec, n=250):
    if kind == "union":
        return rl.union_region([rl.ball_region(ORIGIN, 1.0, n // 2, spec),
                                rl.ball_region([3.0, 0.0, 0.0], 0.5, n // 2, spec)])
    shape = {
        "ball": Ball(ORIGIN, 1.0),
        "sphere": SphereShell(ORIGIN, 1.0),
        "ball-complement": BallComplement(ORIGIN, 1.0),
        "half-space": HalfSpace([0.0, 0.0, 1.0], 0.0),
    }[kind]
    return build_region(shape, n, spec)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("kind", ["ball", "sphere", "ball-complement", "half-space", "union"])
def test_catalog_region_gram_passes_condition_check(kind, alpha):
    spec = KernelSpec(alpha, 3)
    region = _catalog_region(kind, spec)
    g = region.gram(spec)
    g.check_condition()
    diag = g.entries.diagonal()
    # every radius is the nominal one or capped below it
    assert np.all(diag >= region.reg_radius ** spec.exponent)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("budget", [225, 275])
def test_half_space_wiener_shells_get_capped_gram(budget, alpha):
    """A near-duplicate pair in the Halton shell layout breaks the uniform
    diagonal; capping the radius at half the nearest spacing restores it."""
    spec = KernelSpec(alpha, 3)
    nodes = HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(ORIGIN, 0.5, 1.0, budget)
    region = rl.cloud_region(nodes, spec)
    with pytest.raises(IllConditioned):
        assemble_gram(spec, nodes, reg_radius=region.reg_radius).check_condition()
    g = region.gram(spec)
    g.check_condition()
    d_nn = nearest_neighbor_spacing(nodes)[0]
    assert g.entries.diagonal().max() == pytest.approx((0.5 * d_nn) ** spec.exponent, rel=1e-12)


def test_inverted_shape_membership_tracks_base():
    base = BallComplement(ORIGIN, 1.0)
    center = np.array([0.0, 0.0, 0.0])
    star = rl.invert_shape(center, SphereShell(ORIGIN, 2.0))
    # the image of the radius-2 sphere is the radius-1/2 sphere
    pts = fibonacci_sphere(50, 0.5)  # images of radius-2 points
    assert star.contains(pts).all()
    assert not star.contains(np.array([[0.9, 0, 0]])).any()


@pytest.mark.parametrize("kind", ["ball", "half-space", "union"])
def test_default_radius_and_spacing_follow_nearest_neighbors(kind):
    """A region's default radius is REGION_REG_FACTOR x the mean
    nearest-neighbor spacing, and spacing() is nearest_neighbor_spacing,
    both bit for bit."""
    spec15 = KernelSpec(1.5, 3)
    region = _catalog_region(kind, spec15)
    spacing = nearest_neighbor_spacing(region.nodes)
    assert region.spacing() == spacing
    assert region.reg_radius == rl.regions.REGION_REG_FACTOR * spacing[1]


def test_region_rejects_repeated_node():
    points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(rl.DegenerateNodes, match="two nodes closer than h_min"):
        rl.cloud_region(points, KernelSpec(2.0, 3))
    with pytest.raises(rl.DegenerateNodes):
        Region(PointCloud(points[:3]), np.array(points), reg_radius=0.1)


def test_region_reuses_one_kd_tree(spec, monkeypatch):
    """Building a region, sweeping a Dirac with checks, and an equilibrium
    with probes build one KD-tree in all: the region's own."""
    import rieszlab.core as core
    import rieszlab.regions as regions

    trees = []

    def counting(*args, **kwargs):
        trees.append(1)
        return cKDTree(*args, **kwargs)

    monkeypatch.setattr(core, "cKDTree", counting)
    monkeypatch.setattr(regions, "cKDTree", counting)
    region = build_region(Ball(ORIGIN, 1.0), 500, spec)
    res = rl.sweep(spec, rl.dirac([2.0, 0.0, 0.0]), region)
    eq = rl.riesz_equilibrium(spec, region, n_probes=50)
    assert len(trees) == 1
    assert res.checks.n_probes == 100 and eq.probe_potential_max is not None


def test_characteristic_scales():
    assert Ball(ORIGIN, 2.5).characteristic_scale() == pytest.approx(2.5)
    assert SphereShell(ORIGIN, 0.5).characteristic_scale() == pytest.approx(0.5)
    assert HalfSpace([1.0, 0, 0], 3.0).characteristic_scale() > 0
