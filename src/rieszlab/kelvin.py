"""Inversion in the unit sphere and the associated measure transform.

Inversion about a pole y maps x to y + (x - y)/|x - y|^2.  It is an
involution that exchanges neighborhoods of y with neighborhoods of
infinity.  The measure transform re-weights each atom by the kernel
distance to the pole, which makes Riesz potentials transform covariantly:
the potential of the transformed measure at the transformed point equals
|x - y|^(n - alpha) times the original potential at x.  These identities
are exact for discrete measures, up to floating-point rounding.  Every
function here takes the pole y first, as an array-like point.
"""
from __future__ import annotations

import numpy as np

from .core import DiscreteMeasure, KernelSpec, _as_points, _relative, potential_at
from .errors import CenterCharged
from .regions import Shape, _require_shapes, invert_points

__all__ = ["invert_shape", "kelvin_transform", "verify_potential_covariance"]


def kelvin_transform(center, spec: KernelSpec, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Transform a discrete measure by the inversion about ``center``: atoms
    move by inversion, weights pick up the factor |x - y|^(alpha - n)."""
    (y,) = _as_points(center, spec.dim)
    diff = _as_points(nu.points, spec.dim) - y
    r = np.linalg.norm(diff, axis=1)
    if np.any(r == 0.0):
        raise CenterCharged("measure places mass at the inversion pole")
    new_points = y + diff / (r * r)[:, None]
    new_weights = nu.weights * r**spec.exponent
    return DiscreteMeasure(new_points, new_weights, signed=nu.signed)


def verify_potential_covariance(
    center, spec: KernelSpec, nu: DiscreteMeasure, sample_points
) -> float:
    """Max relative error of the potential transformation rule on samples.

    For each sample x (distinct from the pole ``center`` and from the
    atoms), compares the potential of the transformed measure at the
    inverted point against |x - y|^(n - alpha) times the original potential
    at x.
    """
    (y,) = _as_points(center, spec.dim)
    X = _as_points(sample_points, spec.dim)
    nu_star = kelvin_transform(y, spec, nu)
    X_star = invert_points(y, X)
    lhs = potential_at(spec, nu_star, X_star)
    r = np.linalg.norm(X - y, axis=1)
    rhs = r ** (-spec.exponent) * potential_at(spec, nu, X)
    return float(np.max(_relative(np.abs(lhs - rhs), rhs)))


def invert_shape(center, shape: Shape) -> Shape:
    """Image of a catalog shape under inversion about ``center``, again in the catalog.

    Writing d = c - y and k = |d|^2 - r^2 for a sphere S(c, r), the image
    is the sphere with center y + d/k and radius r/|k|; for balls the sign
    of k decides whether inside and outside swap.  A sphere through the
    pole (k = 0) maps to a plane, which this catalog does not represent.
    Half-spaces map to balls or their complements, unions part by part,
    and point clouds point by point.
    """
    _require_shapes(shape)
    return shape.inverted(center)
