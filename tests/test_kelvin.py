import numpy as np
import pytest

import rieszlab as rl
from rieszlab import (
    Ball,
    BallComplement,
    CenterCharged,
    CenterInversion,
    DiscreteMeasure,
    HalfSpace,
    InvalidInput,
    KernelSpec,
    SphereShell,
    UnionShape,
    cross_energy,
    dirac,
    invert_points,
    invert_shape,
    kelvin_transform,
    verify_potential_covariance,
)

ORIGIN = np.zeros(3)


def random_measure(rng, k, signed=False, shift=0.0):
    pts = rng.normal(size=(k, 3)) * 1.5 + shift
    w = rng.random(k) + 0.1
    if signed:
        w *= rng.choice([-1.0, 1.0], size=k)
    return DiscreteMeasure(pts, w, signed=signed)


def test_invert_point_example():
    assert np.allclose(invert_points(ORIGIN, [2.0, 0.0, 0.0]), [0.5, 0.0, 0.0])
    # unit sphere points are fixed
    assert np.allclose(invert_points(ORIGIN, [0.0, 1.0, 0.0]), [0.0, 1.0, 0.0])


def test_inversion_is_involutive():
    rng = np.random.default_rng(1)
    pole = rng.normal(size=3)
    pts = rng.normal(size=(40, 3)) * 3.0
    back = invert_points(pole, invert_points(pole, pts))
    assert np.max(np.abs(back - pts)) < 1e-12 * np.max(np.abs(pts))


def test_inversion_distance_identity():
    """|x* - z*| = |x - z| / (|x - y| |z - y|)."""
    rng = np.random.default_rng(2)
    y = rng.normal(size=3)
    for _ in range(20):
        x, z = rng.normal(size=(2, 3)) * 2.0
        lhs = np.linalg.norm(invert_points(y, x) - invert_points(y, z))
        rhs = np.linalg.norm(x - z) / (
            np.linalg.norm(x - y) * np.linalg.norm(z - y)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_invert_at_pole_raises():
    pole = np.array([1.0, 2.0, 3.0])
    with pytest.raises(CenterInversion):
        invert_points(pole, [1.0, 2.0, 3.0])


def test_kelvin_weight_law(spec):
    mu = dirac([2.0, 0.0, 0.0], 1.0)
    mu_star = kelvin_transform(ORIGIN, spec, mu)
    assert np.allclose(mu_star.points, [[0.5, 0.0, 0.0]])
    # alpha=2, n=3: weights scale by r^(alpha-n) = 1/r
    assert mu_star.weights[0] == pytest.approx(0.5)


def test_kelvin_transform_is_involutive(spec):
    rng = np.random.default_rng(3)
    pole = rng.normal(size=3) * 0.1
    mu = random_measure(rng, 7, signed=True, shift=4.0)
    back = kelvin_transform(pole, spec, kelvin_transform(pole, spec, mu))
    assert np.max(np.abs(back.points - mu.points)) < 1e-12 * 4
    assert np.max(np.abs(back.weights - mu.weights)) < 1e-12


def test_kelvin_transform_of_the_zero_measure_is_empty(spec):
    out = kelvin_transform([1.0, 0.0, 0.0], spec, DiscreteMeasure.empty(3))
    assert out.n_points == 0 and out.dim == 3


def test_kelvin_rejects_charged_pole(spec):
    with pytest.raises(CenterCharged):
        kelvin_transform(ORIGIN, spec, dirac(ORIGIN))


def test_kelvin_mass_equals_potential_at_pole(spec):
    rng = np.random.default_rng(4)
    y = np.array([0.2, -0.1, 0.3])
    mu = random_measure(rng, 6, shift=3.0)
    mu_star = kelvin_transform(y, spec, mu)
    assert mu_star.total_mass == pytest.approx(
        rl.potential(spec, mu, y), rel=1e-13
    )


def test_kelvin_energy_invariance():
    for alpha in (2.0, 1.3):
        s = KernelSpec(alpha, 3)
        rng = np.random.default_rng(5)
        pole = rng.normal(size=3) * 0.2
        mu = random_measure(rng, 5, shift=3.0)
        nu = random_measure(rng, 4, signed=True, shift=-3.0)
        lhs = cross_energy(
            s, kelvin_transform(pole, s, mu), kelvin_transform(pole, s, nu)
        )
        rhs = cross_energy(s, mu, nu)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_potential_covariance(spec):
    rng = np.random.default_rng(6)
    pole = np.array([0.5, 0.5, 0.5])
    nu = random_measure(rng, 8, shift=4.0)
    samples = rng.normal(size=(30, 3)) * 2.0 - 4.0
    assert verify_potential_covariance(pole, spec, nu, samples) < 1e-12


def test_invert_shape_exterior_ball():
    star = invert_shape([2.0, 0.0, 0.0], Ball(ORIGIN, 1.0))
    assert isinstance(star, Ball)
    assert np.allclose(star.center, [4.0 / 3.0, 0.0, 0.0])
    assert star.radius == pytest.approx(1.0 / 3.0)


def test_invert_shape_ball_containing_pole_swaps():
    star = invert_shape(ORIGIN, Ball(ORIGIN, 1.0))
    assert isinstance(star, BallComplement)
    assert star.radius == pytest.approx(1.0)


def test_invert_shape_complement_about_interior_point():
    star = invert_shape(ORIGIN, BallComplement(ORIGIN, 1.0))
    assert isinstance(star, Ball)
    assert np.allclose(star.center, ORIGIN)
    assert star.radius == pytest.approx(1.0)


def test_invert_shape_half_space():
    star = invert_shape(ORIGIN, HalfSpace([1.0, 0.0, 0.0], 1.0))
    assert isinstance(star, Ball)
    assert np.allclose(star.center, [0.5, 0.0, 0.0])
    assert star.radius == pytest.approx(0.5)


def test_invert_shape_half_space_pole_inside():
    star = invert_shape([3.0, 0.0, 0.0], HalfSpace([1.0, 0.0, 0.0], 1.0))
    assert isinstance(star, BallComplement)


def test_invert_shape_sphere_through_pole_raises():
    with pytest.raises(CenterInversion):
        invert_shape([1.0, 0.0, 0.0], Ball(ORIGIN, 1.0))


class _Uncatalogued(rl.Shape):
    """A shape the inversion catalog does not know."""


@pytest.mark.parametrize(
    "shape, exc, message",
    [
        (HalfSpace([1.0, 0.0, 0.0], 0.0), CenterInversion,
         "the boundary plane passes through the inversion pole"),
        (_Uncatalogued(), InvalidInput, "no inversion image for _Uncatalogued"),
    ],
    ids=["plane-through-pole", "uncatalogued"],
)
def test_invert_shape_without_an_image_raises(shape, exc, message):
    with pytest.raises(exc, match=message):
        invert_shape(ORIGIN, shape)


def test_invert_shape_union_maps_parts():
    u = UnionShape([Ball(ORIGIN, 1.0), Ball([5.0, 0.0, 0.0], 1.0)])
    star = invert_shape([0.0, 0.0, 3.0], u)
    assert isinstance(star, UnionShape)
    assert len(star.parts) == 2
    assert all(isinstance(p, Ball) for p in star.parts)


def test_invert_shape_sphere_is_analytic_sphere():
    star = invert_shape([2.0, 0.0, 0.0], SphereShell(ORIGIN, 1.0))
    assert isinstance(star, SphereShell)
    assert np.allclose(star.center, [4.0 / 3.0, 0.0, 0.0])
    assert star.radius == pytest.approx(1.0 / 3.0)
    # pole inside: same centre and radius formula, k = |d|^2 - r^2 < 0
    star = invert_shape([0.5, 0.0, 0.0], SphereShell(ORIGIN, 1.0))
    assert isinstance(star, SphereShell)
    assert np.allclose(star.center, [0.5 + 0.5 / 0.75, 0.0, 0.0])
    assert star.radius == pytest.approx(1.0 / 0.75)


def test_invert_shape_point_cloud_inverts_points():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.5, 0.5, 1.0]])
    pole = np.array([0.0, 0.0, -1.0])
    star = invert_shape(pole, rl.PointCloud(pts))
    assert isinstance(star, rl.PointCloud)
    assert np.array_equal(star.points, invert_points(pole, pts))
    with pytest.raises(CenterInversion):
        invert_shape(pts[0], rl.PointCloud(pts))


def test_invert_shape_membership_is_conjugated():
    """x in A exactly when x* in A*, for every analytic image."""
    rng = np.random.default_rng(7)
    pole = np.array([0.0, 0.0, 2.0])
    shapes = [
        Ball(ORIGIN, 1.0),
        BallComplement(ORIGIN, 1.0),
        HalfSpace([1.0, 0.0, 0.0], 1.5),
        SphereShell(ORIGIN, 1.0),
    ]
    pts = rng.normal(size=(200, 3)) * 2.0
    pts = pts[np.linalg.norm(pts - pole, axis=1) > 1e-6]
    for shape in shapes:
        star = invert_shape(pole, shape)
        lhs = star.contains(invert_points(pole, pts))
        rhs = shape.contains(pts)
        assert np.array_equal(lhs, rhs), type(shape).__name__
