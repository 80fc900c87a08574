import numpy as np
import pytest

from rieszlab import (
    Ball,
    BallComplement,
    DiscreteMeasure,
    HalfSpace,
    PointCloud,
    SphereShell,
    classify_terms,
    dirac,
    fibonacci_sphere,
    mass_loss_test,
    thin_at_infinity_report,
    wiener_report,
)
from rieszlab.thinness import K_TAIL

ORIGIN = np.zeros(3)
E1 = np.array([1.0, 0.0, 0.0])


class TestClassifyTerms:
    def test_all_zero_is_degenerate(self):
        cls, ratio, degenerate = classify_terms(np.zeros(8))
        assert cls == "irregular"
        assert ratio is None
        assert degenerate

    def test_empty_is_degenerate(self):
        cls, ratio, degenerate = classify_terms([])
        assert (cls, ratio, degenerate) == ("irregular", None, True)

    def test_geometric_decay_is_irregular(self):
        terms = 0.5 ** np.arange(8.0)
        cls, ratio, degenerate = classify_terms(terms)
        assert cls == "irregular"
        assert not degenerate
        assert ratio == pytest.approx(0.5, rel=1e-6)

    def test_constant_terms_are_regular(self):
        cls, ratio, degenerate = classify_terms(np.ones(8))
        assert cls == "regular"
        assert not degenerate
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_zero_in_tail_is_degenerate(self):
        terms = [1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.5, 0.5]
        cls, ratio, degenerate = classify_terms(terms)
        assert (cls, ratio, degenerate) == ("irregular", None, True)

    def test_collapsed_tail_is_inconclusive(self):
        # the tail neither decays geometrically nor stays near the peak
        terms = [1000.0, 1.0, 0.5, 0.5, 0.5, 0.5]
        cls, ratio, degenerate = classify_terms(terms)
        assert cls == "inconclusive"
        assert not degenerate

    def test_single_term_is_inconclusive(self):
        cls, ratio, degenerate = classify_terms([2.0])
        assert cls == "inconclusive"
        assert ratio is None


def test_ball_boundary_point_is_regular(spec):
    rep = wiener_report(spec, Ball(ORIGIN, 1.0), E1)
    assert rep.classification == "regular"
    assert not rep.degenerate
    assert 0.9 < rep.fitted_ratio < 1.1
    assert len(rep.shells) == rep.k_max == 8
    for s in rep.shells:
        assert s.n_nodes > 0
        assert 0.0 < s.capacity <= 1.05  # shells sit inside the unit ball
        assert s.term > 0.0


def test_half_space_boundary_point_is_regular(spec):
    rep = wiener_report(spec, HalfSpace([0.0, 0.0, 1.0], 0.0), ORIGIN)
    assert rep.classification == "regular"
    assert not rep.degenerate


def test_isolated_point_is_degenerate_irregular(spec):
    cloud = PointCloud(np.vstack([ORIGIN, fibonacci_sphere(40, 0.3, 4.0 * E1)]))
    rep = wiener_report(spec, cloud, ORIGIN)
    assert rep.classification == "irregular"
    assert rep.degenerate
    assert all(s.n_nodes == 0 for s in rep.shells)
    assert len(rep.shells) == K_TAIL + 1  # the scan ends after K_TAIL + 1 empty shells


def test_point_off_the_set_is_degenerate(spec):
    rep = wiener_report(spec, Ball(ORIGIN, 1.0), 3.0 * E1, k_max=8)
    assert rep.classification == "irregular"
    assert rep.degenerate


def test_shell_terms_rescale_capacity(spec):
    rep = wiener_report(spec, Ball(ORIGIN, 1.0), E1, ratio_q=0.5, k_max=6)
    for s in rep.shells:
        assert s.term == pytest.approx(s.capacity * 0.5 ** (s.k * spec.exponent))


def test_ball_is_thin_at_infinity(spec):
    rep = thin_at_infinity_report(spec, Ball(ORIGIN, 1.0), 3.0 * E1)
    assert rep.thin
    assert rep.wiener.classification == "irregular"
    assert rep.image_descriptor["shape"] == "ball"


def test_ball_complement_is_not_thin_at_infinity(spec):
    rep = thin_at_infinity_report(spec, BallComplement(ORIGIN, 1.0), ORIGIN)
    assert not rep.thin
    assert rep.wiener.classification == "regular"


def test_inversion_center_on_set_rejected(spec):
    with pytest.raises(ValueError, match="off the set"):
        thin_at_infinity_report(spec, Ball(ORIGIN, 1.0), 0.5 * E1)


def test_bad_ratio_rejected(spec):
    with pytest.raises(ValueError, match="ratio_q"):
        wiener_report(spec, Ball(ORIGIN, 1.0), E1, ratio_q=1.0)


@pytest.mark.parametrize("shape", [Ball(ORIGIN, 1.0), SphereShell(ORIGIN, 1.0)], ids=["ball", "sphere"])
@pytest.mark.parametrize("name", ["shell_budget", "k_max"])
def test_empty_shell_scan_rejected(spec, shape, name):
    """No shells, or shells with no nodes, would read as a degenerate
    irregular point of any set; both are rejected before any shell is laid."""
    with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
        wiener_report(spec, shape, E1, **{name: 0})
    with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
        thin_at_infinity_report(spec, shape, 3.0 * E1, **{name: 0})


def test_mass_loss_onto_ball(spec, ball2000):
    out = mass_loss_test(spec, dirac(2.0 * E1), ball2000)
    assert not out["vacuous"]
    assert out["strict_loss"]
    assert out["mass_out"] == pytest.approx(0.5, abs=0.01)
    assert out["loss_fraction"] == pytest.approx(0.5, abs=0.01)


def test_mass_loss_complement_preserves(spec, complement2000):
    out = mass_loss_test(spec, dirac(ORIGIN), complement2000)
    assert not out["vacuous"]
    assert not out["strict_loss"]
    assert out["mass_out"] == pytest.approx(1.0, abs=0.01)


def test_mass_loss_zero_measure_is_vacuous(spec, ball2000):
    mu = DiscreteMeasure(np.array([[2.0, 0, 0], [0, 3.0, 0]]), np.zeros(2))
    out = mass_loss_test(spec, mu, ball2000)
    assert out["vacuous"]
    assert not out["strict_loss"]


@pytest.mark.parametrize("loss_margin", [float("nan"), float("inf"), -0.1])
def test_mass_loss_rejects_bad_margin(spec, ball500, loss_margin):
    with pytest.raises(ValueError, match="loss_margin must be finite and nonnegative"):
        mass_loss_test(spec, dirac(2.0 * E1), ball500, loss_margin=loss_margin)


def test_mass_loss_stable_across_resolutions(spec, ball500, ball2000):
    mu = dirac(np.array([0.0, 2.5, 0.0]))
    a = mass_loss_test(spec, mu, ball500)
    b = mass_loss_test(spec, mu, ball2000)
    assert a["strict_loss"] and b["strict_loss"]
    assert abs(a["loss_fraction"] - b["loss_fraction"]) < 0.01
