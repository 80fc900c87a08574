import os
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.spatial.distance import cdist

import rieszlab as rl
from rieszlab import (
    DegenerateNodes,
    DimensionMismatch,
    DiscreteMeasure,
    GramMatrix,
    IllConditioned,
    IndeterminateValue,
    KernelSpec,
    cross_energy,
    dirac,
    potential,
    potential_at,
    riesz_kernel,
)
from rieszlab import core
from rieszlab.core import _assemble_distinct, _assembly_bounds

from conftest import gram_over

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


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
def test_kernel_is_the_potential_of_a_point_mass_bitwise(alpha):
    """riesz_kernel and potential read one kernel block: k(x, y) equals the
    potential of a unit charge at y, evaluated at x, bit for bit."""
    s = KernelSpec(alpha, 3)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(2, 2000, 3))
    mismatches = [
        i for i, (x, y) in enumerate(zip(X, Y))
        if riesz_kernel(s, x, y) != potential(s, dirac(y), x)
    ]
    assert mismatches == []


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda s: riesz_kernel(s, np.zeros((1, 3)), E1), DimensionMismatch,
         r"points must have shape \(3,\)"),
        (lambda s: DiscreteMeasure([0.0, 0.0, 0.0], [1.0]), ValueError,
         "points must be a 2-D array"),
        (lambda s: DiscreteMeasure([[0.0, 0.0, 0.0]], [1.0, 2.0]), ValueError,
         "weights must be 1-D with one entry per point"),
    ],
    ids=["kernel-point-shape", "measure-1d-points", "measure-weight-count"],
)
def test_core_input_checks(spec, call, exc, message):
    with pytest.raises(exc, match=message):
        call(spec)


def test_measure_basics():
    mu = DiscreteMeasure([[0, 0, 0], [1, 0, 0]], [0.25, 0.75])
    assert mu.n_points == 2
    assert mu.dim == 3
    assert mu.total_mass == 1.0
    assert not mu.signed
    assert repr(mu) == "DiscreteMeasure(2 points in R^3, positive, mass=1)"
    signed = DiscreteMeasure([[0, 0, 0]], [-0.25], signed=True)
    assert repr(signed) == "DiscreteMeasure(1 points in R^3, signed, mass=-0.25)"
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


@pytest.mark.parametrize(
    "signed, factor", [(False, 2.5), (False, -0.5), (True, 2.5)], ids=["grow", "flip", "signed"]
)
def test_scaled_keeps_the_support_without_a_distinctness_query(monkeypatch, signed, factor):
    """A scaled measure has its parent's support, which is already distinct:
    it builds no KD-tree."""
    import rieszlab.core as core

    weights = [0.25, -0.5 if signed else 0.5, 1.0]
    mu = DiscreteMeasure([[0, 0, 0], [1, 0, 0], [0, 1, 0]], weights, signed=signed)

    def no_tree(*args, **kwargs):
        raise AssertionError("scaled built a KD-tree")

    monkeypatch.setattr(core, "cKDTree", no_tree)
    out = mu.scaled(factor)
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights * factor)
    assert out.signed == (signed or factor < 0)


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
    # every point at once: each sits on one atom, which decides its value
    mixed = DiscreteMeasure([[0, 0, 0], [1, 0, 0], [0, 2, 0]], [1.0, 0.0, -1.0], signed=True)
    vals = potential_at(s, mixed, mixed.points)
    assert vals[0] == np.inf and vals[2] == -np.inf
    assert vals[1] == pytest.approx(1.0 - 5.0 ** -0.5, rel=1e-15)


def test_measure_rejects_coincident_support():
    with pytest.raises(DegenerateNodes):
        DiscreteMeasure([[0, 0, 0], [0, 0, 0.0]], [1.0, -1.0], signed=True)


def test_measure_rejects_atoms_closer_than_h_min():
    """Atoms 1e-12 apart, in a support of diameter about 1, are one point."""
    with pytest.raises(DegenerateNodes, match=r"two nodes closer than h_min=1e-09 \(min spacing 1e-12\)"):
        DiscreteMeasure([[0, 0, 0], [1e-12, 0, 0], [1, 0, 0]], [1.0, 1.0, 1.0])


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


def test_empty_measure_takes_the_general_path(spec):
    """The zero measure has potential 0 and cross energy 0.0 through the
    empty kernel block, and a dimension that differs from the kernel's
    raises, as for any other measure."""
    empty = DiscreteMeasure.empty(3)
    assert np.array_equal(potential_at(spec, empty, np.ones((4, 3))), np.zeros(4))
    assert cross_energy(spec, empty, dirac(E1)) == 0.0
    assert cross_energy(spec, dirac(E1), empty) == 0.0
    with pytest.raises(DimensionMismatch):
        potential_at(spec, DiscreteMeasure.empty(4), np.ones((4, 3)))
    with pytest.raises(DimensionMismatch):
        cross_energy(spec, DiscreteMeasure.empty(4), dirac(E1))


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
    g = gram_over(spec, [[0, 0, 0], [1, 0, 0]], radius=0.1)
    assert np.allclose(g.entries, [[10.0, 1.0], [1.0, 10.0]])


def test_gram_per_node_radii(spec):
    """One self-interaction per node, written as given."""
    radii = np.array([0.1, 0.25])
    g = _assemble_distinct(spec, np.array([[0.0, 0, 0], [1, 0, 0]]), radii ** spec.exponent)
    assert np.allclose(g.entries, [[10.0, 1.0], [1.0, 4.0]])


def test_gram_single_node():
    s = KernelSpec(1.0, 3)
    g = rl.cloud_region([[0.0, 0.0, 0.0]], s, reg_radius=0.5).gram(s)
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == pytest.approx(0.5 ** (1.0 - 3.0))


def test_gram_symmetric_and_positive_definite(spec):
    rng = np.random.default_rng(11)
    nodes = rng.normal(size=(60, 3)) * 3.0
    g = gram_over(spec, nodes)
    assert np.max(np.abs(g.entries - g.entries.T)) == 0.0
    for _ in range(50):
        w = rng.normal(size=60)
        assert float(w @ (g.entries @ w)) > 0.0


def test_gram_rejects_coincident_nodes(spec):
    with pytest.raises(DegenerateNodes):
        rl.cloud_region([[0, 0, 0], [0, 0, 1e-15], [1, 0, 0]], spec)


def test_gram_solve_and_condition(spec):
    rng = np.random.default_rng(2)
    nodes = rng.normal(size=(30, 3)) * 2.0
    g = gram_over(spec, nodes)
    b = rng.random(30)
    x = g.solve(b)
    assert np.allclose(g.entries @ x, b, rtol=1e-8, atol=1e-10)


def test_gram_solve_rejects_non_finite_rhs(spec):
    g = gram_over(spec, np.random.default_rng(3).normal(size=(10, 3)))
    b = np.ones(10)
    b[4] = np.nan
    with pytest.raises(ValueError):
        g.solve(b)


def test_solve_block_with_a_full_mask_is_solve(spec, monkeypatch):
    """A full mask solves through the cached factor: solve's bits and no new
    factorization.  A partial mask factors its block once."""
    import rieszlab.core as core

    rng = np.random.default_rng(4)
    g = gram_over(spec, rng.normal(size=(40, 3)) * 2.0)
    b = rng.random(40)
    expected = g.solve(b)
    factor = core.cho_factor
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(core, "cho_factor", counting)
    assert np.array_equal(g.solve_block(np.ones(40, dtype=bool), b, {}), expected)
    assert calls == []
    mask = np.arange(40) % 3 != 0
    x = g.solve_block(mask, b[mask], {})
    assert len(calls) == 1
    assert np.allclose(g.entries[np.ix_(mask, mask)] @ x, b[mask], rtol=1e-8, atol=1e-10)


def test_solve_block_shares_factors_and_drops_the_oldest_past_n_squared(spec):
    """A free set met before reuses its factor and its bits; a new one first
    drops the oldest factors while the dict holds more than n^2 entries."""
    rng = np.random.default_rng(5)
    g = gram_over(spec, rng.normal(size=(40, 3)) * 2.0)
    b = rng.random(40)
    masks = [np.arange(40) != i for i in range(3)]  # 39^2 entries each, n^2 = 1600
    factors = {}
    first = g.solve_block(masks[0], b[masks[0]], factors)
    g.solve_block(masks[1], b[masks[1]], factors)
    assert list(factors) == [masks[0].tobytes(), masks[1].tobytes()]
    assert np.array_equal(g.solve_block(masks[0], b[masks[0]], factors), first)
    assert np.array_equal(g.solve_block(masks[0], b[masks[0]], {}), first)
    g.solve_block(masks[2], b[masks[2]], factors)
    assert list(factors) == [masks[1].tobytes(), masks[2].tobytes()]


def test_gram_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        GramMatrix(np.zeros((2, 3)), np.zeros((3, 3)))


def _one_shot_gram_entries(spec, nodes, diagonal):
    """Reference assembly: cdist and power over the whole matrix at once."""
    D = cdist(nodes, nodes)
    np.fill_diagonal(D, 1.0)
    np.power(D, spec.exponent, out=D)
    np.fill_diagonal(D, diagonal)
    return D


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.0])
@pytest.mark.parametrize("n", [2, 127, 128, 129, 257, 700, 1024, 1500, 2000])
def test_blocked_assembly_equals_one_shot_reference(alpha, n):
    """Mirrored block rows, in as many parts as the CPUs allow, give every
    entry of the one-shot assembly bitwise."""
    spec = KernelSpec(alpha, 3)
    rng = np.random.default_rng(n)
    nodes = rng.normal(size=(n, 3))
    radii = 0.01 + 0.02 * rng.random(n)
    for diagonal in (0.01 ** spec.exponent, radii ** spec.exponent):
        g = _assemble_distinct(spec, nodes, diagonal)
        assert np.array_equal(g.entries, _one_shot_gram_entries(spec, nodes, diagonal))
        assert np.array_equal(g.entries, g.entries.T)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_assembly_splits_only_from_1024_nodes(monkeypatch, cpus):
    """Below 1024 nodes a part would be under half the triangle of a
    1024-node Gram, so one part runs in the calling thread."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    assert _assembly_bounds(2) == [0, 2]
    assert _assembly_bounds(1023) == [0, 1023]
    assert _assembly_bounds(1024) == ([0, 1024] if cpus == 1 else [0, 300, 1024])
    # at most 2 (n / 1024)^2 parts: 7 at n = 2000
    assert len(_assembly_bounds(2000)) - 1 == min(cpus, 7)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_assembly_is_the_same_in_any_number_of_parts(monkeypatch, alpha):
    """Every part fills its rows from the same cdist rows and power, so the
    entries do not depend on the split, also where the part boundaries fall
    off the multiples of ASSEMBLY_BLOCK_ROWS, and with more threads than
    cores switching as often as the interpreter allows."""
    spec = KernelSpec(alpha, 3)
    nodes = np.random.default_rng(5).normal(size=(2000, 3))
    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    assert [b % core.ASSEMBLY_BLOCK_ROWS for b in _assembly_bounds(2000)] == [0, 111, 77, 80]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        entries = {}
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            assert len(_assembly_bounds(2000)) == cpus + 1
            entries[cpus] = _assemble_distinct(spec, nodes, 7.0).entries
    finally:
        sys.setswitchinterval(interval)
    for cpus in (2, 3, 7):
        assert np.array_equal(entries[cpus], entries[1])


@pytest.mark.parametrize("count, cpus", [(4, 4), (None, 1)])
def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch, count, cpus):
    """Where the OS has no affinity mask, the CPU count, or 1 when it is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert core._usable_cpus() == cpus


def test_assembly_raises_a_worker_exception_and_joins_every_thread(monkeypatch):
    """A part that fails in a worker thread fails the call, and no thread
    outlives it."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    caller = threading.current_thread()

    def cdist_off_the_caller(*args, **kwargs):
        if threading.current_thread() is not caller:
            raise MemoryError("worker part")
        return cdist(*args, **kwargs)

    monkeypatch.setattr(core, "cdist", cdist_off_the_caller)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker part"):
        _assemble_distinct(KernelSpec(2.0, 3), np.random.default_rng(1).normal(size=(1500, 3)), 1.0)
    assert threading.active_count() == before


def test_factor_lower_triangle_equals_cho_factor_of_the_entries(spec, ball500, gk2000):
    """Factoring through the transposed view reads the same numbers: region,
    capped and Green Grams get the factor scipy gives the entries as they are."""
    shell = rl.HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(np.zeros(3), 0.5, 1.0, 225)
    capped = rl.cloud_region(shell, spec)
    green = rl.green_gram(gk2000, rl.fibonacci_sphere(150, 0.5, np.zeros(3)))
    for g in (ball500.gram(spec), capped.gram(spec), green):
        expected = cho_factor(g.entries, lower=True)[0]
        assert np.array_equal(np.tril(g.cholesky()[0]), np.tril(expected))
    # the capped diagonal ran: some radius is below the region's
    assert capped.gram(spec).entries.diagonal().max() > capped.reg_radius ** spec.exponent


@pytest.fixture
def released(monkeypatch):
    """An empty list of released squares for one test: the squares other
    tests drop do not reach it, and the ones this test drops stay in it."""
    squares = []
    monkeypatch.setattr(core, "_released_squares", squares)
    return squares


def _owner_bytes(n: int) -> int:
    """Bytes of the array that owns a recycled (n, n) square's memory."""
    return 8 * n * n


def _on(a, buffers) -> bool:
    """Whether the array ``a`` reads memory of one of the released squares."""
    return any(np.shares_memory(a, np.frombuffer(buf)) for buf in buffers)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize("n", [core.ASSEMBLY_PART_NODES, 2000])
def test_grams_and_factors_on_recycled_memory_equal_fresh_ones(released, n, alpha):
    """A region Gram and its factor built on the released memory of the last
    ones, NaN-filled first, equal the ones built on fresh memory bit for bit."""
    spec = KernelSpec(alpha, 3)
    shape = rl.Ball(np.zeros(3), 1.0)
    g = rl.build_region(shape, n, spec).gram(spec)
    fresh = (g.entries.copy(), g.cholesky()[0].copy())
    del g
    assert [buf.nbytes for buf in released] == [_owner_bytes(n)] * 2
    stale = list(released)
    for buf in stale:
        np.frombuffer(buf)[:] = np.nan
    g = rl.build_region(shape, n, spec).gram(spec)
    recycled = (g.entries, g.cholesky()[0])
    assert all(_on(a, stale) for a in recycled)
    assert not np.shares_memory(*recycled)
    for a, b in zip(recycled, fresh):
        assert np.array_equal(a, b)


def test_views_of_a_dropped_gram_keep_their_memory(released):
    """Kept views of a dropped Gram's entries and factor, and a solution over
    another dropped Gram, hold their memory: later Grams and factors never
    share it, and the values read through them do not change."""
    spec = KernelSpec(2.0, 3)
    n = core.ASSEMBLY_PART_NODES
    g, h = (rl.ball_region(np.zeros(3), r, n, spec).gram(spec) for r in (1.0, 1.5))
    views = [g.entries[5:, 3:].T, g.cholesky()[0][3:, 5:]]
    sol = rl.solve_nonneg(h, np.ones(n))
    expected = [v.copy() for v in views] + [h.entries @ sol.weights]
    del g, h
    later = [rl.ball_region(np.zeros(3), r, n, spec).gram(spec) for r in (2.0, 3.0)]
    for a in (a for g in later for a in (g.entries, g.cholesky()[0])):
        for kept in views + [sol._entries]:
            assert not np.shares_memory(kept, a)
    for value, want in zip(views + [sol.Kw], expected):
        assert np.array_equal(value, want)


def test_squares_below_the_part_size_are_not_recycled(released):
    """Below ASSEMBLY_PART_NODES nodes a square owns its memory, and neither
    it nor a Gram, its factor or its block buffers are released for reuse."""
    n = core.ASSEMBLY_PART_NODES - 1
    small = core._square(n)
    assert small.flags.owndata and small.flags.c_contiguous and small.shape == (n, n)
    g = gram_over(KernelSpec(2.0, 3), np.random.default_rng(2).normal(size=(n, 3)))
    g.cholesky()
    del small, g
    assert released == []
    large = core._square(n + 1)
    assert not large.flags.owndata and large.flags.c_contiguous and large.shape == (n + 1, n + 1)
    del large
    assert [buf.nbytes for buf in released] == [_owner_bytes(n + 1)]


def test_threads_that_assemble_at_once_get_disjoint_memory(released):
    """Four threads that assemble and factor at once, while two squares are
    released, each get memory of their own and the sequential values."""
    spec = KernelSpec(2.0, 3)
    n = core.ASSEMBLY_PART_NODES
    nodes = [np.random.default_rng(k).normal(size=(n, 3)) for k in range(4)]
    [core._square(n), core._square(n)]  # both released at once
    assert len(released) == 2
    start = threading.Barrier(len(nodes))
    grams = [None] * len(nodes)

    def build(k):
        start.wait()
        g = gram_over(spec, nodes[k])
        g.cholesky()
        grams[k] = g

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(nodes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    arrays = [a for g in grams for a in (g.entries, g.cholesky()[0])]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    for k, g in enumerate(grams):
        ref = gram_over(spec, nodes[k])
        assert np.array_equal(g.entries, ref.entries)
        assert np.array_equal(g.cholesky()[0], ref.cholesky()[0])


def test_at_most_two_released_squares_are_kept(released):
    """The list keeps the last two squares released, a Gram's and a factor's,
    so at most 2 x 8 n^2 bytes stay allocated after the last Gram is gone."""
    n = core.ASSEMBLY_PART_NODES
    for k in range(5):
        core._square(n + k)
        assert len(released) == min(k + 1, 2)
    assert [buf.nbytes for buf in released] == [_owner_bytes(n + 3), _owner_bytes(n + 4)]
    for r in (1.0, 2.0, 3.0):
        rl.ball_region(np.zeros(3), r, 2000, KernelSpec(2.0, 3)).gram(KernelSpec(2.0, 3))
        assert [buf.nbytes for buf in released] == [_owner_bytes(2000)] * 2


@pytest.mark.parametrize(
    "value, where",
    [(np.nan, (3, 7)), (np.inf, (0, 29)), (-np.inf, (12, 28)), (np.inf, (5, 5)), (np.nan, (29, 29))],
)
def test_non_finite_gram_entries_raise_ill_conditioned(spec, value, where):
    """A non-finite entry reaches the factor's diagonal or breaks positive
    definiteness; either way every solve path raises IllConditioned."""
    base = gram_over(spec, np.random.default_rng(3).normal(size=(30, 3)))
    entries = base.entries.copy()
    entries[where] = entries[where[::-1]] = value

    def fresh():
        return GramMatrix(base.nodes, entries)

    for call in (lambda: fresh().cholesky(),
                 lambda: fresh().solve(np.ones(30)),
                 lambda: rl.solve_nonneg(fresh(), np.ones(30))):
        with pytest.raises(IllConditioned) as info:
            call()
        assert "estimate" not in str(info.value)
        if np.isnan(value):
            assert "not finite" in str(info.value)
