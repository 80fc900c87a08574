"""The input guard: every entry point checks its tolerances, with the
messages of ``core._check_tolerance``, before its first probe, Gram or solve."""
import sys

import numpy as np
import pytest

import rieszlab as rl
from rieszlab import DiscreteMeasure, core, dirac, regions

ORIGIN = np.zeros(3)
SPEC = rl.KernelSpec(2.0, 3)
A, B = [0.2, 0.0, 0.0], [0.0, 0.3, 0.0]
ZERO = DiscreteMeasure.empty(3)
SIGNED = DiscreteMeasure([A, B], [1.0, -1.0], signed=True)


@pytest.fixture
def complement():
    """A fresh alpha=2 unit-ball complement at n=200: no Gram is cached on
    it, and no probe can be drawn off it."""
    return rl.ball_complement_region(ORIGIN, 1.0, 200, SPEC)


@pytest.fixture(scope="module")
def green_inputs():
    """A Green kernel, a compact inside its domain and its Green equilibrium."""
    gk = rl.GreenKernel(SPEC, rl.ball_complement_region(ORIGIN, 1.0, 200, SPEC))
    f_region = rl.cloud_region([A, B, [0.0, 0.0, 0.25]], SPEC)
    return gk, f_region, rl.green_equilibrium(gk, f_region)


@pytest.fixture
def spy(monkeypatch) -> list:
    """Record every call of regions.sample_points_off and
    core._assemble_distinct, under every module name bound to them."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rieszlab"]
    for original in (regions.sample_points_off, core._assemble_distinct):
        def recorded(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, recorded)
    return calls


# (entry point, tolerance name, whether it must be positive, call(region, green_inputs, value))
CASES = [
    ("sweep", "tol", True, lambda r, g, v: rl.sweep(SPEC, dirac(A), r, tol=v)),
    ("sweep", "tol_dom", False, lambda r, g, v: rl.sweep(SPEC, dirac(A), r, tol_dom=v)),
    ("sweep_many", "tol", True, lambda r, g, v: rl.sweep_many(SPEC, [dirac(A)], r, tol=v)),
    ("sweep_signed", "tol", True, lambda r, g, v: rl.sweep_signed(SPEC, SIGNED, r, tol=v)),
    ("verify_symmetry", "tol", True,
     lambda r, g, v: rl.verify_symmetry(SPEC, dirac(A), dirac(B), r, tol=v)),
    ("verify_integral_representation", "tol", True,
     lambda r, g, v: rl.verify_integral_representation(SPEC, dirac(A), r, tol=v)),
    ("verify_transitivity", "tol", True,
     lambda r, g, v: rl.verify_transitivity(SPEC, dirac(A), r, r, tol=v)),
    ("riesz_equilibrium", "tol", True,
     lambda r, g, v: rl.riesz_equilibrium(SPEC, r, tol=v, n_probes=10)),
    ("sweep_dirac_by_inversion", "tol", True,
     lambda r, g, v: rl.sweep_dirac_by_inversion(SPEC, A, 1.0, r, tol=v)),
    ("GreenKernel", "tol", True, lambda r, g, v: rl.GreenKernel(SPEC, r, tol=v)),
    ("verify_domination", "tol", False,
     lambda r, g, v: rl.verify_domination(rl.GreenKernel(SPEC, r), dirac(A), tol=v)),
    ("verify_domination", "c", False,
     lambda r, g, v: rl.verify_domination(rl.GreenKernel(SPEC, r), dirac(A), c=v)),
    ("verify_green_minimality", "slack", False,
     lambda r, g, v: rl.verify_green_minimality(*g, slack=v)),
    ("mass_loss_test", "tol", True, lambda r, g, v: rl.mass_loss_test(SPEC, dirac(A), r, tol=v)),
    ("mass_loss_test", "loss_margin", False,
     lambda r, g, v: rl.mass_loss_test(SPEC, dirac(A), r, loss_margin=v)),
    ("mass_loss_test-zero", "tol", True, lambda r, g, v: rl.mass_loss_test(SPEC, ZERO, r, tol=v)),
    ("mass_loss_test-zero", "loss_margin", False,
     lambda r, g, v: rl.mass_loss_test(SPEC, ZERO, r, loss_margin=v)),
]

PARAMS = [
    pytest.param(
        call,
        value,
        f"{name} must be finite and {'positive' if positive else 'nonnegative'}",
        id=f"{entry}-{name}={value}",
    )
    for entry, name, positive, call in CASES
    for value in [np.nan, np.inf, -1.0, "0.1", None, *([0.0] if positive else [])]
]


@pytest.mark.parametrize("call, value, message", PARAMS)
def test_a_bad_tolerance_raises_before_any_probe_or_gram(
    complement, green_inputs, spy, call, value, message
):
    """The region has no probes, so a draw before the check would raise
    ProbeSamplingFailure; its Gram is not cached, so an assembly before the
    check would show in the spy."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(complement, green_inputs, value)
    assert spy == []


def test_the_spy_sees_probes_and_grams(complement, spy):
    """The spy records a probe draw and a Gram assembly made through any module."""
    with pytest.raises(rl.ProbeSamplingFailure):
        rl.sweep(SPEC, dirac(A), complement)
    rl.sweep_many(SPEC, [dirac(A)], complement)
    assert spy == ["sample_points_off", "_assemble_distinct"]


# (id, call(region, green_inputs), message[, exception class if not UnresolvedLayout])
COUNTS = [
    ("riesz_equilibrium-n_probes=2.5", lambda r, g: rl.riesz_equilibrium(SPEC, r, n_probes=2.5),
     "probe count must be a whole number, got 2.5"),
    ("riesz_equilibrium-n_probes=-3", lambda r, g: rl.riesz_equilibrium(SPEC, r, n_probes=-3),
     "probe count must be at least 0"),
    ("riesz_equilibrium-probe_seed=1.5",
     lambda r, g: rl.riesz_equilibrium(SPEC, r, n_probes=5, probe_seed=1.5),
     "probe seed must be a whole number, got 1.5"),
    ("sweep-probe_seed=-1", lambda r, g: rl.sweep(SPEC, dirac(A), r, probe_seed=-1),
     "probe seed must be at least 0"),
    ("verify_domination-n_probes=2.5",
     lambda r, g: rl.verify_domination(rl.GreenKernel(SPEC, r), dirac(A), n_probes=2.5),
     "probe count must be a whole number, got 2.5"),
    ("wiener_report-k_max=2.5",
     lambda r, g: rl.wiener_report(SPEC, rl.Ball(ORIGIN, 1.0), [1.0, 0.0, 0.0], k_max=2.5),
     "k_max must be a whole number, got 2.5"),
    ("verify_green_minimality-n_competitors=2.5",
     lambda r, g: rl.verify_green_minimality(*g, n_competitors=2.5),
     "n_competitors must be a whole number, got 2.5"),
    ("verify_green_minimality-seed=1.5", lambda r, g: rl.verify_green_minimality(*g, seed=1.5),
     "seed must be a whole number, got 1.5"),
]

UNION = rl.UnionShape([rl.Ball(ORIGIN, 1.0), rl.Ball([3.0, 0.0, 0.0], 1.0)])
COUNTS += [
    ("union-n=2.5", lambda r, g: rl.build_region(UNION, 2.5, SPEC),
     "a node count must be a whole number, got 2.5"),
    *((f"union-n={n!r}", lambda r, g, n=n: rl.build_region(UNION, n, SPEC),
       f"a generated region needs n >= 2 nodes, got {n!r}") for n in (-5, 0, True, np.nan)),
    ("KernelSpec-dim=nan", lambda r, g: rl.KernelSpec(2.0, np.nan), "dim must be an integer >= 3"),
    ("KernelSpec-dim=inf", lambda r, g: rl.KernelSpec(2.0, np.inf),
     "dim must be a whole number, got inf"),
    ("KernelSpec-dim=3.5", lambda r, g: rl.KernelSpec(2.0, 3.5),
     "dim must be a whole number, got 3.5"),
]
# A value that is not a real number, or an int past the float range, is no whole number.
for label, bad, got in [("10**400", 10**400, "an int past the float range"),
                        ("'300'", "300", "'300'")]:
    COUNTS += [
        (f"{entry}={label}", lambda r, g, call=call, bad=bad: call(r, g, bad),
         f"{name} must be a whole number, got {got}")
        for entry, name, call in [
            ("build_region-n", "a node count",
             lambda r, g, v: rl.build_region(rl.SphereShell(ORIGIN, 1.0), v, SPEC)),
            ("sample_points_off-n", "probe count", lambda r, g, v: rl.sample_points_off(r, v)),
            ("sample_points_off-seed", "probe seed",
             lambda r, g, v: rl.sample_points_off(r, 5, v)),
            ("wiener_report-k_max", "k_max",
             lambda r, g, v: rl.wiener_report(SPEC, rl.Ball(ORIGIN, 1.0), [1.0, 0.0, 0.0], k_max=v)),
            ("wiener_report-shell_budget", "shell_budget",
             lambda r, g, v: rl.wiener_report(SPEC, rl.Ball(ORIGIN, 1.0), [1.0, 0.0, 0.0],
                                              shell_budget=v)),
            ("verify_green_minimality-n_competitors", "n_competitors",
             lambda r, g, v: rl.verify_green_minimality(*g, n_competitors=v)),
        ]
    ]


# A shape, layout or weight parameter that is not a real number (a 0-d array
# is none) fails its finiteness check.
NOT_FINITE = "center must be finite and radius finite and positive"
COUNTS += [
    ("Ball-radius=None", lambda r, g: rl.Ball(ORIGIN, None), NOT_FINITE),
    ("Ball-radius='1.0'", lambda r, g: rl.Ball(ORIGIN, "1.0"), NOT_FINITE),
    ("Ball-radius=array(1.0)", lambda r, g: rl.Ball(ORIGIN, np.array(1.0)), NOT_FINITE),
    ("HalfSpace-offset=None", lambda r, g: rl.HalfSpace([1.0, 0.0, 0.0], None),
     "normal must be finite and non-zero and offset finite"),
    ("fibonacci_sphere-radius='1.0'", lambda r, g: rl.fibonacci_sphere(5, "1.0"),
     "layout radius must be finite and positive, got '1.0'"),
    ("dirac-weight='1'", lambda r, g: dirac(A, "1"), "points and weights must be finite",
     rl.InvalidInput),
    ("scaled-factor=None", lambda r, g: dirac(A).scaled(None), "points and weights must be finite",
     rl.InvalidInput),
    ("sweep_dirac_by_inversion-weight=None",
     lambda r, g: rl.sweep_dirac_by_inversion(SPEC, A, None, r), "points and weights must be finite",
     rl.InvalidInput),
]
# A shape or a union part that is not a Shape fails the shape check.
COUNTS += [
    (i, call, f"a shape must be a Shape, got {got}", rl.InvalidInput) for i, call, got in [
        ("UnionShape-parts=[5]", lambda r, g: rl.UnionShape([5]), "int"),
        ("UnionShape-parts=[Ball,None]", lambda r, g: rl.UnionShape([rl.Ball(ORIGIN, 1.0), None]),
         "NoneType"),
        ("build_region-shape=5", lambda r, g: rl.build_region(5, 100, SPEC), "int"),
        ("Region-shape=5", lambda r, g: rl.Region(5, r.nodes), "int"),
        ("invert_shape-shape=None", lambda r, g: rl.invert_shape(ORIGIN, None), "NoneType"),
        ("wiener_report-shape=5", lambda r, g: rl.wiener_report(SPEC, 5, [1.0, 0.0, 0.0]), "int"),
        ("thin_at_infinity_report-shape=5",
         lambda r, g: rl.thin_at_infinity_report(SPEC, 5, [3.0, 0.0, 0.0]), "int"),
        ("reinterpret_region-shape=5", lambda r, g: rl.reinterpret_region(r, 5), "int"),
    ]
]


@pytest.mark.parametrize(
    "call, message, exc",
    [pytest.param(c, m, *(e or [rl.UnresolvedLayout]), id=i) for i, c, m, *e in COUNTS],
)
def test_a_count_or_seed_that_is_not_a_whole_number_raises_before_any_gram(
    complement, green_inputs, spy, call, message, exc
):
    """A node count, dimension, probe count, probe seed, shell count, shell
    budget or competitor count must be a whole number in its range, a
    radius, an offset or a weight a real number, and a shape a Shape: each raises its
    RieszLabError, UnresolvedLayout unless the row names another, never a
    TypeError, before the probe draw's first candidate and before any Gram
    is assembled."""
    with pytest.raises(exc) as info:
        call(complement, green_inputs)
    assert str(info.value) == message
    assert "_assemble_distinct" not in spy



# (id, call(region), message): a Region method that reads its Gram diagonal
# checks the kernel's dimension there first, then the points' width.
SPEC4 = rl.KernelSpec(2.0, 4)
DIMENSIONS = [
    ("kernel_rows-points", lambda r: r.kernel_rows(SPEC, [[0.2, 0.0]]),
     "points must have dimension 3, got shape (1, 2)"),
    ("kernel_rows-kernel", lambda r: r.kernel_rows(SPEC4, [[0.2, 0.0, 0.0, 0.0]]),
     "points must have dimension 4, got shape (200, 3)"),
    ("self_terms-points", lambda r: r.self_terms(SPEC, [[0.2, 0.0]]),
     "points must have dimension 3, got shape (1, 2)"),
    ("self_terms-kernel", lambda r: r.self_terms(SPEC4, [[0.2, 0.0, 0.0, 0.0]]),
     "points must have dimension 4, got shape (200, 3)"),
]


@pytest.mark.parametrize("call, message", [pytest.param(c, m, id=i) for i, c, m in DIMENSIONS])
def test_points_or_a_kernel_of_another_dimension_raise_dimension_mismatch(
    complement, call, message
):
    """Points of another width, or a kernel of another dimension than the
    region's, raise DimensionMismatch, never scipy's bare ValueError."""
    with pytest.raises(rl.DimensionMismatch) as info:
        call(complement)
    assert str(info.value) == message
