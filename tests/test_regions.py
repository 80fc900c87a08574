import json
import tracemalloc
import warnings

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
    build_region,
    fibonacci_ball,
    fibonacci_disk,
    fibonacci_sphere,
    reinterpret_region,
    sample_points_off,
)
from rieszlab import regions
from rieszlab.cli import _shape_from_doc
from rieszlab.core import _assemble_distinct
from rieszlab.regions import GOLDEN_ANGLE, SHAPES, _annulus_template, _dedupe

ORIGIN = np.zeros(3)


def nearest_neighbor_spacing(points):
    """Reference (min, mean) nearest-neighbor distance of >= 2 points."""
    d = cKDTree(points).query(points, k=2)[0][:, 1]
    return float(d.min()), float(d.mean())


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


def test_fibonacci_ball_is_cubic_root_radii_times_the_sphere_spiral():
    n, radius, center = 301, 1.7, np.array([0.1, -0.2, 0.3])
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = GOLDEN_ANGLE * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    r = radius * ((i + 0.5) / n) ** (1.0 / 3.0)
    assert np.array_equal(fibonacci_ball(n, radius, center), r[:, None] * dirs + center)


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


@pytest.mark.parametrize(
    "r_lo, r_hi, counts",
    [(0.5, 1.0, (55, 3)), (0.25, 0.5, (104, 0)), (3.0, 6.0, (0, 0))],
    ids=["both-parts", "one-part", "no-part"],
)
def test_union_shell_nodes_join_the_parts_shells(r_lo, r_hi, counts):
    """The union's shell is its parts' shells, side by side: every node lies
    in the half-open annulus and in the union, and a shell that meets no
    part is a (0, 3) array."""
    parts = [Ball([-1.0, 0.0, 0.0], 0.6), Ball([0.9, 0.0, 0.0], 0.5)]
    union = UnionShape(parts)
    y = np.array([-0.4, 0.0, 0.0])
    assert tuple(len(p.shell_nodes(y, r_lo, r_hi, 300)) for p in parts) == counts
    nodes = union.shell_nodes(y, r_lo, r_hi, 300)
    assert nodes.shape == (sum(counts), 3)
    d = np.linalg.norm(nodes - y, axis=1)
    assert (d >= r_lo).all() and (d < r_hi).all()
    assert union.contains(nodes).all()


def test_union_region_orders_and_allocates(spec):
    a = rl.sphere_region(ORIGIN, 1.0, 100, spec)
    b = rl.sphere_region(ORIGIN, 2.0, 400, spec)
    u = rl.union_region([a, b])
    assert u.n_nodes == 500
    assert np.array_equal(u.nodes[:100], a.nodes)
    assert u.contains(a.nodes).all() and u.contains(b.nodes).all()


def test_union_of_a_ball_with_itself_keeps_one_copy_of_each_node(spec):
    """Every node of the second part collides with one of the first, so the
    union, built or prebuilt, keeps the first part's nodes, with their
    radius, and is a valid Region."""
    built = build_region(UnionShape([Ball(ORIGIN, 1.0), Ball(ORIGIN, 1.0)]), 200, spec)
    assert np.array_equal(built.nodes, Ball(ORIGIN, 1.0).make_nodes(100, spec))
    assert built.n_nodes == 100
    part = build_region(Ball(ORIGIN, 1.0), 100, spec)
    assert np.array_equal(built.reg_radius, np.full(100, part.reg_radius))
    u = rl.union_region([part, part])
    assert np.array_equal(u.nodes, part.nodes)


@pytest.mark.parametrize(
    "alpha, built",
    [(2.0, False), (1.5, False), (2.0, True), (1.5, True)],
    ids=["2.0", "1.5", "built-2.0", "built-1.5"],
)
def test_union_gram_keeps_each_parts_diagonal(alpha, built):
    """Each node of a union keeps its part's radius, so the union's Gram
    diagonal is each part's own Gram diagonal, bit for bit.  Prebuilt: two
    spheres with nearest-neighbor spacings of about 0.05 and 0.2.  Built:
    build_region of their UnionShape, against its parts built at the
    union's counts."""
    spec = KernelSpec(alpha, 3)
    shapes = [SphereShell(ORIGIN, 0.25), SphereShell([3.0, 0.0, 0.0], 1.0)]
    if built:
        union = build_region(UnionShape(shapes), 600, spec)
        counts = UnionShape(shapes).counts(600)
        parts = [build_region(s, c, spec) for s, c in zip(shapes, counts)]
        assert counts == [35, 565] and union.n_nodes == 600
    else:
        parts = [build_region(s, 300, spec) for s in shapes]
        assert [p.spacing()[1] for p in parts] == pytest.approx([0.05, 0.2], rel=0.1)
        union = rl.union_region(parts)
    diagonals = [p.gram(spec).entries.diagonal() for p in parts]
    assert union.gram(spec).entries.diagonal().tobytes() == np.concatenate(diagonals).tobytes()


def test_dedupe_of_identical_points_keeps_the_first():
    points = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert _dedupe(points).tolist() == [True, False]


@pytest.mark.parametrize(
    "y, r_lo, r_hi, count",
    [(ORIGIN, 0.5, 1.5, 50), (ORIGIN, 0.5, 1.0, 0), (ORIGIN, 1.5, 2.0, 0),
     ([3.0, 0.0, 0.0], 0.1, 0.5, 0)],
    ids=["center-band-holds-r", "center-band-ends-at-r", "center-band-beyond-r", "band-misses"],
)
def test_sphere_shell_nodes_where_there_is_no_polar_band(y, r_lo, r_hi, count):
    """Seen from its center the sphere lies at the one distance r: a band
    that holds r gets the whole budget, and a half-open band [r_lo, r) gets
    none.  A band of distances the sphere never reaches gets none either."""
    nodes = SphereShell(ORIGIN, 1.0).shell_nodes(y, r_lo, r_hi, 50)
    assert nodes.shape == (count, 3)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)


def test_union_shape_node_budget_tracks_scale(spec):
    shape = UnionShape([SphereShell(ORIGIN, 1.0), SphereShell(ORIGIN, 2.0)])
    reg = build_region(shape, 500, spec)
    r = np.linalg.norm(reg.nodes, axis=1)
    inner = int((r < 1.5).sum())
    # areas scale like radius squared, so the split is about 1:4
    assert 60 <= inner <= 140


def test_a_cloud_part_of_a_union_counts_its_own_points(spec):
    """A cloud part lays out its own points, so it takes exactly their count
    of the union's n, and the other parts share the rest."""
    cloud = PointCloud(fibonacci_sphere(60, 0.5, [3.0, 0.0, 0.0]))
    shape = UnionShape([Ball(ORIGIN, 1.0), cloud])
    assert shape.counts(400) == [340, 60]
    reg = build_region(shape, 400, spec)
    assert reg.n_nodes == 400
    assert int(Ball(ORIGIN, 1.0).contains(reg.nodes).sum()) == 340


def test_a_nested_union_with_a_cloud_part_builds(spec):
    """The nested union's share is set by its largest part's scale, its
    cloud's among them; inside it, the cloud takes its points and the
    sphere the rest.  A union without a cloud keeps its squared-scale split."""
    cloud = PointCloud(fibonacci_sphere(60, 0.2, [3.0, 0.0, 0.0]))
    inner = UnionShape([SphereShell([0.0, 3.0, 0.0], 0.5), cloud])
    assert cloud.characteristic_scale() == 1.0
    assert inner.characteristic_scale() == 1.0
    shape = UnionShape([Ball(ORIGIN, 2.0), inner])
    assert shape.counts(500) == [400, 100]
    assert inner.counts(100) == [40, 60]
    assert build_region(shape, 500, spec).n_nodes == 500
    plain = UnionShape([Ball(ORIGIN, 1.0), SphereShell([3.0, 0.0, 0.0], 0.3),
                        Ball([0.0, 4.0, 0.0], 0.1)])
    scales = np.array([1.0, 0.3 ** 2, 0.1 ** 2])
    for n in (30, 200, 401):
        want = np.maximum(16, np.round(n * (scales / scales.sum())).astype(int)).tolist()
        assert plain.counts(n) == want


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
    shape = Ball(ORIGIN, 1.0)
    reg = Region(shape, shape.make_nodes(200, spec), reg_radius=0.05)
    assert reg.reg_radius == 0.05
    assert reg.gram(spec).entries[0, 0] == pytest.approx(20.0)


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
def test_region_rejects_a_radius_that_is_not_finite_and_positive(spec, radius):
    """A given radius is checked when the region is built, not at its first
    Gram: an infinite one would give a zero diagonal and the capped rule."""
    shape = SphereShell(ORIGIN, 1.0)
    nodes = shape.make_nodes(50, spec)
    with pytest.raises(ValueError, match="reg_radius must be finite and positive"):
        Region(shape, nodes, reg_radius=radius)
    with pytest.raises(ValueError, match="reg_radius must be finite and positive"):
        rl.cloud_region(nodes, spec, reg_radius=radius)


def test_uniform_gram_that_passes_is_kept_bitwise():
    """The radius is capped only when the uniform Gram fails its check: this
    alpha=1.5 ball has two nodes closer than twice the radius, and its
    uniform Gram passes, so it is kept entry for entry."""
    spec15 = KernelSpec(1.5, 3)
    region = rl.ball_region(ORIGIN, 1.0, 250, spec15)
    d_nn = cKDTree(region.nodes).query(region.nodes, k=2)[0][:, 1]
    assert (0.5 * d_nn < region.reg_radius).sum() == 2
    g = region.gram(spec15)
    uniform = _assemble_distinct(spec15, region.nodes, region.reg_radius ** spec15.exponent)
    assert np.array_equal(g.entries, uniform.entries)


CATALOG_KINDS = ["ball", "sphere", "ball-complement", "half-space", "union", "cloud"]


def _union_parts(spec, n):
    return [rl.ball_region(ORIGIN, 1.0, n // 2, spec),
            rl.ball_region([3.0, 0.0, 0.0], 0.5, n // 2, spec)]


def _catalog_region(kind, spec, n=250):
    if kind == "union":
        return rl.union_region(_union_parts(spec, n))
    if kind == "cloud":
        return rl.cloud_region(fibonacci_ball(n, 1.0, ORIGIN), spec)
    shape = {
        "ball": Ball(ORIGIN, 1.0),
        "sphere": SphereShell(ORIGIN, 1.0),
        "ball-complement": BallComplement(ORIGIN, 1.0),
        "half-space": HalfSpace([0.0, 0.0, 1.0], 0.0),
    }[kind]
    return build_region(shape, n, spec)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_catalog_region_gram_passes_condition_check(kind, alpha):
    spec = KernelSpec(alpha, 3)
    region = _catalog_region(kind, spec)
    g = region.gram(spec)
    g.cholesky()
    diag = g.entries.diagonal()
    # every radius is the nominal one or capped below it
    assert np.all(diag >= region.reg_radius ** spec.exponent)


# A point of the open domain D of each catalog shape.
_POINT_IN_D = {
    "ball": [2.0, 0.0, 0.0],
    "sphere": [0.2, 0.1, 0.0],
    "ball-complement": [0.1, 0.2, -0.3],
    "half-space": [0.0, 0.0, -1.0],
    "union": [1.5, 1.0, 0.0],
    "cloud": [2.0, 0.0, 0.0],
}
# The layered alpha < 2 complement's mean spacing makes the probe standoff
# wider than the hole at N=500 (ROADMAP item 4).
_NO_PROBES_IN_THE_HOLE = pytest.mark.xfail(
    raises=rl.ProbeSamplingFailure, strict=True,
    reason="ROADMAP item 4: the probe standoff of the layered alpha<2 complement exceeds the hole",
)


@pytest.mark.parametrize(
    "kind, alpha",
    [
        pytest.param(kind, alpha, marks=_NO_PROBES_IN_THE_HOLE
                     if kind == "ball-complement" and alpha < 2.0 else ())
        for kind in CATALOG_KINDS
        for alpha in (2.0, 1.5, 1.0)
    ],
)
def test_sweep_invariants_hold_for_every_shape_and_order(kind, alpha):
    """Shape x alpha matrix: a Dirac in D swept onto 500 nodes passes every
    check the sweep reports, with node equality to rounding, over a Gram that
    is exactly symmetric and factored."""
    spec = KernelSpec(alpha, 3)
    region = _catalog_region(kind, spec, n=500)
    res = rl.sweep(spec, rl.dirac(_POINT_IN_D[kind]), region)
    checks = res.checks
    assert checks.mass_ok and checks.energy_ok and checks.domination_ok
    assert checks.n_probes == 100
    assert checks.node_equality_gap <= 1e-12
    g = region.gram(spec)
    assert np.array_equal(g.entries, g.entries.T)
    assert np.isfinite(g.cholesky()[0]).all()


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_green_equilibrium_holds_for_every_shape_and_order(kind, alpha):
    """Shape x alpha matrix: the Green equilibrium of a 150-node sphere of
    radius 0.25 in D converges over an exactly symmetric, factored Green
    Gram, has node potential 1 to rounding, and a capacity above the free
    one of the same nodes (the Green kernel lies below the free kernel)."""
    spec = KernelSpec(alpha, 3)
    region = _catalog_region(kind, spec, n=500)
    f = rl.sphere_region(_POINT_IN_D[kind], 0.25, 150, spec)
    eq = rl.green_equilibrium(rl.GreenKernel(spec, region), f)
    assert eq.solution.converged
    g = eq.gram
    assert np.array_equal(g.entries, g.entries.T)
    assert np.isfinite(g.cholesky()[0]).all()
    assert abs(eq.node_potential_min - 1.0) <= 1e-9
    assert abs(eq.node_potential_max - 1.0) <= 1e-9
    assert eq.capacity > rl.riesz_equilibrium(spec, f).capacity


def _union_green_cell():
    """The nodes of the alpha=1 union cell of the Green matrix above, with
    one radius for all of them: its pole sweeps pivot through the same few
    free sets, column after column."""
    spec = KernelSpec(1.0, 3)
    region = rl.cloud_region(np.concatenate([p.nodes for p in _union_parts(spec, 500)]), spec)
    return rl.GreenKernel(spec, region), rl.sphere_region(_POINT_IN_D["union"], 0.25, 150, spec)


def test_block_pivoting_factors_each_free_set_once(monkeypatch):
    """The columns of one solve share the sub-factor of a free set: one
    factorization per distinct free set, besides the region's Gram, the
    compact's free Gram (its condition check) and the Green Gram."""
    gk, f = _union_green_cell()
    factor_lower = rl.core._factor_lower
    factored = []

    def counting(a, message, **kwargs):
        factored.append("block-pivot" in message)
        return factor_lower(a, message, **kwargs)

    solve_block = rl.GramMatrix.solve_block
    free_sets = []

    def recording(gram, mask, *args):
        if not mask.all():
            free_sets.append((id(gram), mask.tobytes()))
        return solve_block(gram, mask, *args)

    monkeypatch.setattr(rl.core, "_factor_lower", counting)
    monkeypatch.setattr(rl.GramMatrix, "solve_block", recording)
    rl.green_equilibrium(gk, f)
    assert len(free_sets) > 2 * len(set(free_sets))
    assert factored.count(True) == len(set(free_sets))
    assert factored.count(False) == 3


def test_shared_block_factors_give_the_bits_of_fresh_ones(monkeypatch):
    gk, f = _union_green_cell()
    shared = rl.green_equilibrium(gk, f)
    gk, f = _union_green_cell()
    solve_block = rl.GramMatrix.solve_block

    def unshared(gram, mask, rhs, factors):
        return solve_block(gram, mask, rhs, {})  # the dict is dropped after the sub-solve

    monkeypatch.setattr(rl.GramMatrix, "solve_block", unshared)
    fresh = rl.green_equilibrium(gk, f)
    assert np.array_equal(shared.gram.entries, fresh.gram.entries)
    assert np.array_equal(shared.gamma.weights, fresh.gamma.weights)
    assert shared.capacity == fresh.capacity


def test_probes_are_drawn_before_the_gram(monkeypatch):
    """On the alpha=1.5 unit-ball complement at n=500 no probe can be drawn
    (item 4 of the roadmap): sweep and riesz_equilibrium fail on the draw
    without assembling a Gram."""
    spec = KernelSpec(1.5, 3)
    region = build_region(BallComplement(ORIGIN, 1.0), 500, spec)

    def no_gram(*args):
        raise AssertionError("a Gram was assembled before the probe draw")

    monkeypatch.setattr(regions, "_assemble_distinct", no_gram)
    with pytest.raises(rl.ProbeSamplingFailure):
        rl.sweep(spec, rl.dirac(ORIGIN), region)
    with pytest.raises(rl.ProbeSamplingFailure):
        rl.riesz_equilibrium(spec, region, n_probes=50)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("budget", [225, 275])
def test_half_space_wiener_shells_get_capped_gram(budget, alpha, monkeypatch):
    """A near-duplicate pair in the Halton shell layout breaks the uniform
    diagonal; capping the radius at half the nearest spacing restores it.
    The capped Gram rewrites the diagonal of the uniform one: one assembly,
    and the entries of an assembly with the capped radii, bit for bit."""
    spec = KernelSpec(alpha, 3)
    nodes = HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(ORIGIN, 0.5, 1.0, budget)
    region = rl.cloud_region(nodes, spec)
    with pytest.raises(IllConditioned):
        _assemble_distinct(spec, nodes, region.reg_radius ** spec.exponent).cholesky()
    assembled = []
    assemble = regions._assemble_distinct

    def counting(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(regions, "_assemble_distinct", counting)
    g = region.gram(spec)
    assert len(assembled) == 1
    g.cholesky()
    d_nn = nearest_neighbor_spacing(nodes)[0]
    assert g.entries.diagonal().max() == pytest.approx((0.5 * d_nn) ** spec.exponent, rel=1e-12)
    capped_radii = np.minimum(region.reg_radius, 0.5 * cKDTree(nodes).query(nodes, k=2)[0][:, 1])
    expected = assemble(spec, region.nodes, capped_radii ** spec.exponent)
    assert np.array_equal(g.entries, expected.entries)


@pytest.mark.parametrize("alpha, capped", [(1.0, True), (2.0, False)])
def test_region_gram_peaks_at_two_matrices(alpha, capped):
    """The uniform Gram and its factor are 2 n^2 doubles.  A capped Gram
    frees the failed factor, and the uniform Gram, before it factors its own
    entries, so it peaks there too, not at the 4 n^2 of both Grams and both
    factors."""
    spec = KernelSpec(alpha, 3)
    region = build_region(BallComplement(ORIGIN, 1.0), 500, spec)
    tracemalloc.start()
    try:
        g = region.gram(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.entries.diagonal().max() > region.reg_radius ** spec.exponent) == capped
    assert peak <= 2.25 * 8 * region.n_nodes ** 2


@pytest.mark.parametrize(
    "shape",
    [Ball(ORIGIN, 1.0), SphereShell(ORIGIN, 1.0), BallComplement(ORIGIN, 1.0),
     HalfSpace([0.0, 0.0, 1.0], 0.0),
     UnionShape([Ball(ORIGIN, 1.0), Ball([3.0, 0.0, 0.0], 0.5)]),
     PointCloud(fibonacci_sphere(50, 1.0, ORIGIN))],
    ids=["ball", "sphere", "ball-complement", "half-space", "union", "cloud"],
)
@pytest.mark.parametrize("budget", [0, -3])
def test_shell_nodes_reject_a_budget_below_one(shape, budget):
    with pytest.raises(ValueError, match="budget"):
        shape.shell_nodes([1.0, 0.0, 0.0], 0.25, 0.5, budget)


@pytest.mark.parametrize("frac", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("budget", [1, 7, 150, 225, 275, 400])
def test_annulus_template_is_scipy_halton_bit_for_bit(budget, frac):
    """The numpy Halton template equals scipy's unscrambled Halton
    sequence, drawn in the same batches of 4 x budget points."""
    from scipy.stats import qmc

    sampler = qmc.Halton(d=3, scramble=False)
    collected, count = [], 0
    while count < budget:
        X = sampler.random(4 * budget) * 2.0 - 1.0
        r = np.linalg.norm(X, axis=1)
        X = X[(r >= frac) & (r < 1.0)]
        collected.append(X)
        count += len(X)
    reference = np.concatenate(collected)[:budget]
    assert _annulus_template(budget, frac).tobytes() == reference.tobytes()


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
    nearest-neighbor spacing, a union keeps each part's radius, and
    spacing() is nearest_neighbor_spacing, all bit for bit."""
    spec15 = KernelSpec(1.5, 3)
    region = _catalog_region(kind, spec15)
    spacing = nearest_neighbor_spacing(region.nodes)
    assert region.spacing() == spacing
    if kind == "union":
        parts = _union_parts(spec15, 250)
        radii = np.repeat([p.reg_radius for p in parts], [p.n_nodes for p in parts])
        assert np.array_equal(region.reg_radius, radii)
    else:
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


def test_cloud_region_builds_one_kd_tree(spec, monkeypatch):
    """A point cloud and its region share the tree over the points; the
    cloud's membership answers stay those of its own tree."""
    import rieszlab.core as core
    import rieszlab.regions as regions

    trees = []

    def counting(*args, **kwargs):
        trees.append(1)
        return cKDTree(*args, **kwargs)

    monkeypatch.setattr(core, "cKDTree", counting)
    monkeypatch.setattr(regions, "cKDTree", counting)
    points = np.random.default_rng(42).normal(size=(40, 3))
    region = rl.cloud_region(points, spec)
    assert len(trees) == 1
    probes = np.concatenate([points, points + 1e-3, np.zeros((1, 3))])
    d, _ = cKDTree(points).query(probes)
    assert np.array_equal(region.contains(probes), d <= region.shape._tol)
    assert region.contains(points).all() and not region.contains(points + 1e-3).any()


_DOCUMENTED_SHAPES = [
    Ball([0.5, -1.0, 2.0], 1.5),
    BallComplement(ORIGIN, 0.7),
    SphereShell([1.0, 1.0, 1.0], 2.0),
    HalfSpace([1.0, 1.0, 0.0], 0.5),
    HalfSpace([0.3, -2.0, 0.7], -1.25),
    UnionShape([Ball(ORIGIN, 1.0), HalfSpace([0.0, 2.0, 1.0], 3.0), SphereShell([4.0, 0, 0], 0.5)]),
    PointCloud(np.random.default_rng(7).normal(size=(12, 3))),
]


@pytest.mark.parametrize("shape", _DOCUMENTED_SHAPES, ids=lambda s: s.kind)
def test_shape_descriptor_round_trips(shape):
    """The CLI's reader rebuilds every shape from its descriptor bit for bit,
    a half-space given an unnormalized normal included."""
    doc = shape.descriptor()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["shape"] == shape.kind and set(doc) == {"shape", *shape.fields}
    assert _shape_from_doc(doc, "region", KernelSpec(2.0, 3)).descriptor() == doc


def test_shape_catalog_lists_every_kind_once():
    assert {s.kind for s in _DOCUMENTED_SHAPES} == set(SHAPES)
    assert all(SHAPES[cls.kind] is cls for cls in SHAPES.values())


_ROUND = "center must be finite and radius finite and positive"
_PLANE = "normal must be finite and non-zero and offset finite"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Ball([np.nan, 0.0, 0.0], 1.0), _ROUND),
        (lambda: Ball(ORIGIN, np.inf), _ROUND),
        (lambda: BallComplement(ORIGIN, np.nan), _ROUND),
        (lambda: SphereShell([0.0, np.inf, 0.0], 1.0), _ROUND),
        (lambda: SphereShell(ORIGIN, 0.0), _ROUND),
        (lambda: HalfSpace([np.nan, 0.0, 1.0], 0.0), _PLANE),
        (lambda: HalfSpace([0.0, 0.0, 1.0], np.inf), _PLANE),
        (lambda: HalfSpace([0.0, 0.0, 0.0], 0.0), _PLANE),
    ],
    ids=["ball-nan-center", "ball-inf-radius", "complement-nan-radius", "sphere-inf-center",
         "sphere-zero-radius", "half-space-nan-normal", "half-space-inf-offset",
         "half-space-zero-normal"],
)
def test_analytic_shapes_reject_parameters_that_are_not_finite(make, message):
    """A shape with a non-finite or degenerate parameter fails at construction,
    before build_region lays out any node."""
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: fibonacci_sphere(0), "need at least one node"),
        (lambda: fibonacci_disk(0, 1.0, ORIGIN, [0.0, 0.0, 1.0]), "need at least one node"),
        (lambda: UnionShape([]), "union needs at least one part"),
        (lambda: PointCloud([]), r"point cloud must be a non-empty \(n, dim\) array"),
        (lambda: Region(Ball(ORIGIN, 1.0), np.zeros((0, 3))),
         r"region nodes must be a non-empty \(n, dim\) array"),
    ],
    ids=["fibonacci-sphere", "fibonacci-disk", "union", "point-cloud", "region"],
)
def test_empty_layouts_and_node_sets_are_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: fibonacci_sphere(2, np.nan), ValueError),
        (lambda: fibonacci_sphere(5, -1.0), ValueError),
        (lambda: fibonacci_sphere(5, 1.0, [0.0, 0.0]), rl.DimensionMismatch),
        (lambda: fibonacci_ball(5, np.inf), ValueError),
        (lambda: fibonacci_ball(5, 0.0), ValueError),
        (lambda: fibonacci_disk(2, 1.0, ORIGIN, ORIGIN), ValueError),
        (lambda: fibonacci_disk(2, 1.0, ORIGIN, [np.inf, 0.0, 1.0]), ValueError),
        (lambda: fibonacci_disk(2, 1.0, [0.0, 0.0], [0.0, 0.0, 1.0]), rl.DimensionMismatch),
    ],
    ids=["sphere-nan-radius", "sphere-negative-radius", "sphere-2d-center",
         "ball-inf-radius", "ball-zero-radius", "disk-zero-normal", "disk-inf-normal",
         "disk-2d-center"],
)
def test_layouts_reject_a_degenerate_radius_normal_or_center(make, error):
    """A layout's radius must be finite and positive, a disk's normal finite
    and nonzero, and a center one 3-d point: no warning and no NaN point."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            make()


@pytest.mark.parametrize("shape", [Ball(ORIGIN, 1.0), SphereShell([0.5, -1.0, 2.0], 0.3),
                                   BallComplement(ORIGIN, 1.0), HalfSpace([0.0, 0.0, 1.0], 0.0)])
@pytest.mark.parametrize("n", [0, 1])
def test_a_generated_region_needs_two_nodes(spec, shape, n):
    """One node has no spacing to set the default radius from; the message
    names the node count, which build_region takes, at every alpha."""
    for alpha in (2.0, 1.5):
        with pytest.raises(ValueError, match=r"a generated region needs n >= 2 nodes, got "):
            build_region(shape, n, KernelSpec(alpha, 3))
    assert build_region(shape, 2, spec).n_nodes == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: fibonacci_sphere(0), "need at least one node"),
        (lambda: fibonacci_ball(5, np.nan), "layout radius must be finite and positive, got nan"),
        (lambda: fibonacci_disk(2, 1.0, ORIGIN, ORIGIN), "disk normal must be finite and nonzero"),
        (lambda: Ball(ORIGIN, 1.0).shell_nodes(ORIGIN, 0.25, 0.5, 0), "budget must be >= 1, got 0"),
        (lambda: build_region(Ball(ORIGIN, 1.0), 1, KernelSpec(2.0, 3)),
         "a generated region needs n >= 2 nodes, got 1"),
        (lambda: Ball(ORIGIN, np.nan), "center must be finite and radius finite and positive"),
        (lambda: HalfSpace(ORIGIN, 0.0), "normal must be finite and non-zero and offset finite"),
        (lambda: UnionShape([]), "union needs at least one part"),
        (lambda: PointCloud([]), "point cloud must be a non-empty (n, dim) array"),
        (lambda: Region(Ball(ORIGIN, 1.0), np.zeros((0, 3))),
         "region nodes must be a non-empty (n, dim) array"),
        (lambda: Region(Ball(ORIGIN, 1.0), np.zeros((1, 3)), reg_radius=-1.0),
         "reg_radius must be finite and positive, one or one per node, got -1.0"),
        (lambda: Region(Ball(ORIGIN, 1.0), [[2.0, 0.0, 0.0]]),
         "every region node must satisfy the membership predicate"),
        (lambda: Region(Ball(ORIGIN, 1.0), np.zeros((1, 3))),
         "reg_radius is required for single-node regions"),
        (lambda: reinterpret_region(rl.sphere_region(ORIGIN, 1.0, 20, KernelSpec(2.0, 3)),
                                    Ball(ORIGIN, 0.5)),
         "every region node must satisfy the membership predicate"),
        (lambda: build_region(SphereShell(ORIGIN, 1.0), 2.5, KernelSpec(2.0, 3)),
         "a node count must be a whole number, got 2.5"),
        (lambda: Ball(ORIGIN, 1.0).shell_nodes(ORIGIN, 0.25, 0.5, 2.5),
         "budget must be a whole number, got 2.5"),
        (lambda: rl.wiener_report(KernelSpec(2.0, 3), Ball(ORIGIN, 1.0), [1.0, 0.0, 0.0],
                                  shell_budget=2.5),
         "budget must be a whole number, got 2.5"),
    ],
    ids=["no-node", "radius", "disk-normal", "budget", "generated-region", "round-shape",
         "half-space", "union", "point-cloud", "region-nodes", "region-radius",
         "region-membership", "region-single-node", "reinterpret", "whole-count",
         "whole-budget", "wiener-whole-budget"],
)
def test_layout_checks_raise_unresolved_layout(make, message):
    """Every shape, region and layout check raises UnresolvedLayout, a
    RieszLabError that is also the ValueError it raised before, with the
    same message; a count or budget must be a whole number."""
    with pytest.raises(rl.UnresolvedLayout) as info:
        make()
    assert isinstance(info.value, rl.RieszLabError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


FAR_CENTERS = [(1e8, 0.0, 0.0), (0.5, -1.0, 2.0)]
FAR_RADII = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 3.0, 1e6, 1e150]


@pytest.mark.parametrize("cls", [Ball, BallComplement, SphereShell])
@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
def test_round_layouts_far_from_the_origin_are_members_or_rejected(cls, alpha):
    """Rounding moves a layout point c + r u by about eps (|c| + r), which far
    from the origin exceeds SURFACE_TOL x r.  Membership allows for it, so a
    shape's own layout passes its own test; a layout that rounding moves by
    more than LAYOUT_RESOLUTION of its radius is rejected, with a typed error."""
    spec = KernelSpec(alpha, 3)
    for center in FAR_CENTERS:
        for radius in FAR_RADII:
            shape = cls(center, radius)
            rounding = regions.LAYOUT_ROUNDING * (np.linalg.norm(center) + radius)
            if rounding > regions.LAYOUT_RESOLUTION * radius:
                with pytest.raises(rl.UnresolvedLayout, match="rounds its points by up to"):
                    build_region(shape, 200, spec)
            else:
                # the alpha < 2 complement's shells reach 16 r wherever its
                # center lies, so h_min stays below r at 1e8 too
                region = build_region(shape, 200, spec)
                assert shape.contains(region.nodes).all()
    # the grid's defect: the ball of radius 3 at 1e8 failed its own test
    assert build_region(cls(FAR_CENTERS[0], 3.0), 200, KernelSpec(2.0, 3)).n_nodes == 200


@pytest.mark.parametrize("alpha", [1.5, 1.0])
@pytest.mark.parametrize("shape, least", [(Ball(ORIGIN, 1.0), 3),
                                          (BallComplement([0.5, -1.0, 2.0], 0.3), 8),
                                          (HalfSpace([0.0, 0.0, 1.0], 0.0), 6)],
                         ids=["ball", "ball-complement", "half-space"])
def test_a_layered_layout_names_its_smallest_node_count(monkeypatch, shape, least, alpha):
    """An alpha < 2 layout splits n among its layers; below the count that
    gives every layer a node it raises UnresolvedLayout, which names that
    count, before it lays out any node."""
    spec = KernelSpec(alpha, 3)
    laid_out = []
    layout_center = regions._layout_center

    def spy(*args):
        laid_out.append(args)
        return layout_center(*args)

    monkeypatch.setattr(regions, "_layout_center", spy)
    with pytest.raises(rl.UnresolvedLayout, match=rf"layout needs n >= {least} nodes, got {least - 1}$"):
        build_region(shape, least - 1, spec)
    assert laid_out == []
    region = build_region(shape, least, spec)
    assert laid_out and region.n_nodes == least and shape.contains(region.nodes).all()


def test_membership_keeps_its_relative_tolerance_near_the_origin():
    """The rounding slack is eps-sized at O(1) scales: a point 2e-9 outside
    the unit sphere is no member, one 0.5e-9 outside is."""
    e = np.array([[1.0, 0.0, 0.0]])
    assert Ball(ORIGIN, 1.0).contains(e * (1.0 + 0.5e-9)).all()
    assert not Ball(ORIGIN, 1.0).contains(e * (1.0 + 2e-9)).any()
    assert not BallComplement(ORIGIN, 1.0).contains(e * (1.0 - 2e-9)).any()
    assert not SphereShell(ORIGIN, 1.0).contains(e * (1.0 + 2e-9)).any()


def test_half_space_keeps_a_unit_normal_and_normalizes_others():
    unit = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.array_equal(HalfSpace(unit, 0.0).normal, unit)
    normal = HalfSpace([0.0, 3.0, 4.0], 1.0).normal
    assert np.array_equal(normal, [0.0, 0.6, 0.8])


def test_nearest_node_finds_an_atom_on_a_node(spec, ball500):
    h_min = ball500.h_min
    assert h_min > 0.0
    on = ball500.nodes[[17, 250]] + [[0.5 * h_min, 0.0, 0.0], [0.0, 0.0, 0.0]]
    off = np.array([0.0, 0.0, 0.0])
    dist, index = ball500.nearest_node(np.vstack([on, off]))
    assert list(index[:2]) == [17, 250]
    assert dist[0] <= h_min and dist[1] == 0.0
    assert dist[2] == pytest.approx(1.0)
    d1, i1 = ball500.nearest_node(ball500.nodes[3])
    assert d1.shape == (1,) and i1[0] == 3


def test_characteristic_scales():
    assert Ball(ORIGIN, 2.5).characteristic_scale() == pytest.approx(2.5)
    assert SphereShell(ORIGIN, 0.5).characteristic_scale() == pytest.approx(0.5)
    assert HalfSpace([1.0, 0, 0], 3.0).characteristic_scale() > 0


def _sample_points_off_reference(region, n, seed=regions.PROBE_SEED):
    """The probe draw as written before candidates were dropped on their radius."""
    if n <= 0:
        return np.empty((0, region.dim))
    rng = np.random.default_rng(seed)
    centroid = region.nodes.mean(axis=0)
    radius = float(np.linalg.norm(region.nodes - centroid, axis=1).max())
    standoff = regions.PROBE_STANDOFF * region.spacing()[1]
    out = []
    count = 0
    dim = region.dim
    for _ in range(regions.PROBE_MAX_BATCHES):
        dirs = rng.normal(size=(4 * n, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = (2.2 * radius + 4.0 * standoff) * rng.random(4 * n) ** (1.0 / dim)
        X = centroid + radii[:, None] * dirs
        keep = ~region.contains(X)
        X = X[keep]
        if len(X):
            d, _ = region.nearest_node(X)
            X = X[d >= standoff]
        if len(X):
            out.append(X)
            count += len(X)
        if count >= n:
            break
    if count < n:
        raise rl.ProbeSamplingFailure("probe sampling failed to find enough points off A")
    return np.concatenate(out)[:n]


def _probe_case_region(case, spec):
    if case.startswith("complement-"):
        return build_region(BallComplement(ORIGIN, 1.0), int(case.split("-")[1]), spec)
    if case == "offset-complement":
        # Nodes on one cap of the sphere: the node centroid is far from the
        # ball's center, so the bound reaches past the ball's own radius.
        center = np.array([0.5, -1.0, 2.0])
        sphere = fibonacci_sphere(600, 1.5)
        return Region(BallComplement(center, 1.5), center + sphere[sphere[:, 2] > 0.2])
    if case == "far-node-complement":
        # Three mean spacings exceed the hole's radius, yet every point of
        # the hole keeps them from the nodes, which lie far out in A.
        return Region(BallComplement(ORIGIN, 1.0), fibonacci_sphere(300, 2.5))
    if case == "ball":
        return build_region(Ball(ORIGIN, 1.0), 300, spec)
    if case == "half-space":
        return build_region(HalfSpace([0.0, 0.0, 1.0], 0.5), 300, spec)
    return rl.cloud_region(np.random.default_rng(3).normal(size=(60, 3)), spec)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize(
    "case",
    [
        "complement-150",
        "complement-220",
        "complement-500",
        "complement-2000",
        "offset-complement",
        "far-node-complement",
        "ball",
        "half-space",
        "cloud",
    ],
)
def test_sample_points_off_matches_the_unbounded_draw_bit_for_bit(case, alpha):
    region = _probe_case_region(case, KernelSpec(alpha, 3))
    for seed in (1, 5, regions.PROBE_SEED):
        for n in (1, 40):
            try:
                expected = _sample_points_off_reference(region, n, seed)
            except rl.ProbeSamplingFailure:
                with pytest.raises(rl.ProbeSamplingFailure):
                    sample_points_off(region, n, seed)
            else:
                assert np.array_equal(sample_points_off(region, n, seed), expected)


@pytest.mark.parametrize("center, radius", [(ORIGIN, 1.0), ([0.5, -1.0, 2.0], 0.3)])
def test_domain_ball_of_a_ball_complement_holds_every_point_off_it(center, radius):
    shape = BallComplement(center, radius)
    c, rho = shape.domain_ball()
    box = np.random.default_rng(11).uniform(-3.0, 3.0, size=(200_000, 3))
    X = np.asarray(center) + radius * box
    off = X[~shape.contains(X)]
    assert len(off) > 1000
    assert (np.linalg.norm(off - c, axis=1) <= rho).all()


_UNBOUNDED_DOMAINS = [s for s in _DOCUMENTED_SHAPES if s.kind != "ball-complement"]


@pytest.mark.parametrize("shape", _UNBOUNDED_DOMAINS, ids=lambda s: s.kind)
def test_domain_ball_is_none_where_the_domain_is_unbounded(shape):
    assert shape.domain_ball() is None


def test_cloud_region_still_rejects_nodes_off_the_cloud(spec):
    points = np.random.default_rng(12).normal(size=(30, 3))
    with pytest.raises(ValueError, match="membership"):
        Region(PointCloud(points), np.concatenate([points[:10], [[9.0, 9.0, 9.0]]]))
    with pytest.raises(ValueError, match="membership"):
        Region(PointCloud(points[:10]), points)
