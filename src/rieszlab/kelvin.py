"""Inversion in the unit sphere and the associated measure transform.

Inversion about a pole y maps x to y + (x - y)/|x - y|^2.  It is an
involution that exchanges neighborhoods of y with neighborhoods of
infinity.  The measure transform re-weights each atom by the kernel
distance to the pole, which makes Riesz potentials transform covariantly:
the potential of the transformed measure at the transformed point equals
|x - y|^(n - alpha) times the original potential at x.  These identities
are exact for discrete measures, up to floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, KernelSpec, potential_at
from .errors import CenterCharged, CenterInversion
from .regions import (
    Ball,
    BallComplement,
    HalfSpace,
    PointCloud,
    Shape,
    SphereShell,
    UnionShape,
    _Round,
)


@dataclass(frozen=True)
class Inversion:
    """Inversion in the sphere of radius 1 centered at ``center``."""

    center: np.ndarray

    def __init__(self, center):
        object.__setattr__(self, "center", np.asarray(center, dtype=float))


def invert_points(inv: Inversion, points) -> np.ndarray:
    """Map points through the inversion; the pole itself is not allowed."""
    X = np.asarray(points, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    diff = X - inv.center
    r2 = np.einsum("ij,ij->i", diff, diff)
    if np.any(r2 == 0.0):
        raise CenterInversion("cannot invert the pole of the inversion")
    out = inv.center + diff / r2[:, None]
    return out[0] if single else out


def kelvin_transform(inv: Inversion, spec: KernelSpec, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Transform a discrete measure: atoms move by inversion, weights pick up
    the factor |x - y|^(alpha - n)."""
    if nu.n_points == 0:
        return nu
    diff = nu.points - inv.center
    r = np.linalg.norm(diff, axis=1)
    if np.any(r == 0.0):
        raise CenterCharged("measure places mass at the inversion pole")
    new_points = inv.center + diff / (r * r)[:, None]
    new_weights = nu.weights * r**spec.exponent
    return DiscreteMeasure(new_points, new_weights, signed=nu.signed)


def verify_potential_covariance(
    inv: Inversion, spec: KernelSpec, nu: DiscreteMeasure, sample_points
) -> float:
    """Max relative error of the potential transformation rule on samples.

    For each sample x (distinct from the pole and from the atoms), compares
    the potential of the transformed measure at the inverted point against
    |x - y|^(n - alpha) times the original potential at x.
    """
    X = np.asarray(sample_points, dtype=float)
    nu_star = kelvin_transform(inv, spec, nu)
    X_star = invert_points(inv, X)
    lhs = potential_at(spec, nu_star, X_star)
    r = np.linalg.norm(X - inv.center, axis=1)
    rhs = r ** (-spec.exponent) * potential_at(spec, nu, X)
    scale = np.maximum(np.abs(rhs), np.finfo(float).tiny)
    return float(np.max(np.abs(lhs - rhs) / scale))


def invert_shape(center, shape: Shape) -> Shape:
    """Image of a catalog shape under inversion about ``center``, again in the catalog.

    Writing d = c - y and k = |d|^2 - r^2 for a sphere S(c, r), the image
    is the sphere with center y + d/k and radius r/|k|; for balls the sign
    of k decides whether inside and outside swap.  A sphere through the
    pole (k = 0) maps to a plane, which this catalog does not represent.
    Half-spaces map to balls or their complements, unions part by part,
    and point clouds point by point.
    """
    y = np.asarray(center, dtype=float)
    if isinstance(shape, _Round):
        d = shape.center - y
        k = float(d @ d) - shape.radius**2
        if abs(k) < 1e-12 * shape.radius**2:
            raise CenterInversion(
                "the boundary sphere passes through the inversion pole"
            )
        c_star = y + d / k
        r_star = shape.radius / abs(k)
        if isinstance(shape, SphereShell):
            return SphereShell(c_star, r_star)
        inside_preserved = k > 0
        if isinstance(shape, Ball):
            return Ball(c_star, r_star) if inside_preserved else BallComplement(c_star, r_star)
        return BallComplement(c_star, r_star) if inside_preserved else Ball(c_star, r_star)
    if isinstance(shape, HalfSpace):
        delta = float(shape.normal @ y) - shape.offset
        if abs(delta) < 1e-12 * max(1.0, abs(shape.offset)):
            raise CenterInversion("the boundary plane passes through the inversion pole")
        # delta is the signed height of the pole over the boundary plane.
        # Pole outside the half-space: the image is a closed ball touching
        # the pole.  Pole in the interior: inside and outside swap.
        c_star = y - shape.normal / (2.0 * delta)
        r_star = 1.0 / (2.0 * abs(delta))
        if delta < 0:
            return Ball(c_star, r_star)
        return BallComplement(c_star, r_star)
    if isinstance(shape, UnionShape):
        return UnionShape([invert_shape(y, p) for p in shape.parts])
    if isinstance(shape, PointCloud):
        return PointCloud(invert_points(Inversion(y), shape.points))
    raise TypeError(f"no inversion image for {type(shape).__name__}")
