"""Point dimensions: ``core._as_points`` reads every point argument, so a
point, center, sample set or measure of another dimension raises
DimensionMismatch in every public entry point, before any solve."""
import numpy as np
import pytest

import rieszlab as rl
from rieszlab import DimensionMismatch, DiscreteMeasure, dirac
from rieszlab.core import _as_points

ORIGIN = np.zeros(3)
SPEC = rl.KernelSpec(2.0, 3)
PAIR4 = [[0.1, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0]]


def test_as_points_reads_one_point_as_one_row():
    assert _as_points([1, 2, 3], 3).shape == (1, 3)
    assert _as_points(np.ones((5, 3)), 3).shape == (5, 3)
    assert _as_points(np.empty((0, 3)), 3).shape == (0, 3)
    with pytest.raises(DimensionMismatch, match=r"points must have dimension 3, got shape \(2, 4\)"):
        _as_points(PAIR4, 3)
    with pytest.raises(DimensionMismatch, match=r"got shape \(\)"):
        _as_points(1.0, 3)


@pytest.fixture(scope="module")
def complement200():
    """The alpha=2 unit-ball complement at n=200, off which no probe can be drawn."""
    return rl.ball_complement_region(ORIGIN, 1.0, 200, SPEC)


CASES = {
    "green_eval": lambda gk: rl.green_eval(gk, [0.5, 0.0, 0.0, 0.0], ORIGIN),
    "green_potential": lambda gk: rl.green_potential(gk, dirac([0.2, 0, 0, 0]), [[0.5, 0, 0]]),
    "green_gram": lambda gk: rl.green_gram(gk, PAIR4),
    "green_equilibrium": lambda gk: rl.green_equilibrium(gk, rl.cloud_region(PAIR4, SPEC)),
    "verify_domination": lambda gk: rl.verify_domination(gk, DiscreteMeasure(PAIR4, [1.0, 1.0])),
    "verify_energy_decomposition": lambda gk: rl.verify_energy_decomposition(
        gk, DiscreteMeasure(PAIR4, [1.0, 1.0])
    ),
    "invert_points": lambda gk: rl.invert_points(ORIGIN, [[1.0, 0.0, 0.0, 0.0]]),
    "invert_shape": lambda gk: rl.invert_shape([0.0, 0.0, 0.0, 0.0], rl.Ball([2.0, 0, 0], 1.0)),
    "kelvin_transform": lambda gk: rl.kelvin_transform(ORIGIN, SPEC, dirac([1.0, 0, 0, 0])),
    "verify_potential_covariance": lambda gk: rl.verify_potential_covariance(
        [2.0, 0, 0], SPEC, dirac([0.1, 0, 0]), [[0.5, 0.5, 0.5, 0.5]]
    ),
    "wiener_report": lambda gk: rl.wiener_report(SPEC, rl.Ball(ORIGIN, 1.0), [1.0, 0, 0, 0]),
    "thin_at_infinity_report": lambda gk: rl.thin_at_infinity_report(
        SPEC, rl.Ball(ORIGIN, 1.0), [3.0, 0, 0, 0]
    ),
    "sweep_dirac_by_inversion": lambda gk: rl.sweep_dirac_by_inversion(
        SPEC, [0.2, 0, 0, 0], 1.0, gk.region
    ),
    "Ball.contains": lambda gk: rl.Ball(ORIGIN, 1.0).contains([[0.0, 0.0, 0.0, 0.0]]),
    "union_region": lambda gk: rl.union_region([gk.region, rl.cloud_region(PAIR4, SPEC)]),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_a_point_of_another_dimension_raises_dimension_mismatch(complement200, call):
    with pytest.raises(DimensionMismatch, match="points must have dimension"):
        call(rl.GreenKernel(SPEC, complement200))


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, region: rl.sweep(spec, dirac(ORIGIN), region),
        lambda spec, region: rl.riesz_equilibrium(spec, region, n_probes=10),
        lambda spec, region: rl.verify_integral_representation(spec, dirac(ORIGIN), region),
        lambda spec, region: rl.verify_transitivity(
            spec, dirac(ORIGIN), rl.ball_complement_region(ORIGIN, 1.0, 400, SPEC), region
        ),
        lambda spec, region: rl.verify_domination(rl.GreenKernel(spec, region), dirac(ORIGIN)),
    ],
    ids=[
        "sweep",
        "riesz_equilibrium",
        "verify_integral_representation",
        "verify_transitivity",
        "verify_domination",
    ],
)
def test_kernel_dimension_is_checked_before_the_probes_are_drawn(complement200, call):
    """The region has no probes, so a probe draw before the check would
    raise ProbeSamplingFailure."""
    with pytest.raises(DimensionMismatch):
        call(rl.KernelSpec(2.0, 4), complement200)


def test_a_green_kernel_checks_its_dimension_at_construction(complement200):
    """The message names the region's nodes, not the default empty nu of
    verify_domination, which the caller never passed."""
    with pytest.raises(DimensionMismatch, match=r"dimension 4, got shape \(200, 3\)$"):
        rl.verify_domination(rl.GreenKernel(rl.KernelSpec(2, 4), complement200), dirac(ORIGIN))


SHAPES = {
    "ball": rl.Ball(ORIGIN, 1.0),
    "ball-complement": rl.BallComplement(ORIGIN, 1.0),
    "sphere": rl.SphereShell(ORIGIN, 1.0),
    "half-space": rl.HalfSpace([0.0, 0.0, 1.0], 0.0),
    "union": rl.UnionShape([rl.Ball(ORIGIN, 1.0), rl.SphereShell([3.0, 0, 0], 1.0)]),
    "cloud": rl.PointCloud([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_shell_nodes_read_their_center_as_a_point(shape):
    """A shell center of another dimension than the shape's raises
    DimensionMismatch in shell_nodes, and so in a 4-d wiener_report."""
    y = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(DimensionMismatch, match="points must have dimension 3"):
        shape.shell_nodes(y, 0.25, 0.5, 50)
    with pytest.raises(DimensionMismatch, match="points must have dimension 3"):
        rl.wiener_report(rl.KernelSpec(2.0, 4), shape, y)


@pytest.mark.parametrize("spec", [SPEC, rl.KernelSpec(2.0, 4)], ids=["dim3", "dim4"])
def test_mass_loss_test_checks_dimensions_before_the_vacuous_report(spec):
    """An empty measure in R^4 against a 3-d region reports no loss under
    neither kernel dimension: the measure or the region is of the wrong one."""
    region = rl.ball_region(ORIGIN, 1.0, 100, SPEC)
    with pytest.raises(DimensionMismatch, match="points must have dimension"):
        rl.mass_loss_test(spec, DiscreteMeasure.empty(4), region)
