"""Equilibrium measures and capacities, plain and relative to a domain.

The capacitary measure of a node set solves Gauss's problem, minimize
w'Kw - 2 1'w over w >= 0: by its KKT conditions the minimizer x* has
potential at least 1 on the nodes and 1 on its support, and its mass 1'x*
is the discrete capacity.  The same construction over a Green Gram matrix
yields the capacity of a compact relative to an open domain, and over the
image of a region under inversion about a point charge it yields, mapped
back, the sweep of that charge.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .balayage import _check_inputs, _sweep_batch
from .core import (DEFAULT_TOL, DiscreteMeasure, GramMatrix, KernelSpec, _as_points,
                   _check_tolerance, _check_weight, _require_whole, potential_at)
from .errors import InvalidInput
from .green import GreenKernel, _green_gram
from .kelvin import invert_shape, kelvin_transform
from .regions import PROBE_SEED, Region, build_region, sample_points_off
from .solver import QPSolution

__all__ = ["EquilibriumResult", "green_equilibrium", "riesz_equilibrium",
           "sweep_dirac_by_inversion", "verify_green_minimality"]


@dataclass(frozen=True)
class EquilibriumResult:
    """Capacitary measure of a node set with its diagnostics.

    ``gamma`` integrates to ``capacity``; its potential is 1 on charged
    nodes and at least 1 on uncharged ones, up to solver tolerance; its
    energy is minimal over ``gram``, a plain or a Green Gram matrix.
    ``solution`` is the solve of Gauss's problem over ``gram``.
    """

    gamma: DiscreteMeasure
    capacity: float
    min_energy: float
    solution: QPSolution
    node_potential_min: float
    node_potential_max: float
    node_potential_mean: float
    probe_potential_max: float | None
    probe_seed: int | None
    gram: GramMatrix


def _equilibrium_from_gram(gram: GramMatrix, tol: float) -> EquilibriumResult:
    ones = np.ones(gram.n)
    (sol,) = _sweep_batch(gram, ones[:, None], tol)
    # The probability vector of least energy is x*/1'x* (the solver's x* >= +0),
    # the mass constraint's multiplier is 2/1'x*, and the least energy is 1/1'x*.
    x = sol.weights
    w = (1.0 / float(ones @ x)) * x
    w *= 1.0 / w.sum()
    min_energy = float(w @ (gram.entries @ w))
    gw = w / min_energy
    node_pot = gram.entries @ gw
    return EquilibriumResult(
        gamma=DiscreteMeasure._on_support(gram.nodes, gw),
        capacity=1.0 / min_energy,
        min_energy=min_energy,
        solution=sol,
        node_potential_min=float(np.min(node_pot)),
        node_potential_max=float(np.max(node_pot)),
        node_potential_mean=float(np.mean(node_pot)),
        probe_potential_max=None,
        probe_seed=None,
        gram=gram,
    )


def riesz_equilibrium(
    spec: KernelSpec,
    region: Region,
    tol: float = DEFAULT_TOL,
    n_probes: int = 0,
    probe_seed: int = PROBE_SEED,
) -> EquilibriumResult:
    """Capacitary measure and capacity of a region's node set.

    With ``n_probes`` > 0, also reports the largest potential value at
    probe points off the region, which the maximum principle keeps near 1.
    """
    _check_inputs(spec, region, tol)
    probes = sample_points_off(region, n_probes, probe_seed)
    eq = _equilibrium_from_gram(region.gram(spec), tol)
    if n_probes <= 0:
        return eq
    probe_max = float(np.max(potential_at(spec, eq.gamma, probes)))
    return replace(eq, probe_potential_max=probe_max, probe_seed=probe_seed)


def sweep_dirac_by_inversion(
    spec: KernelSpec,
    point,
    weight: float,
    region: Region,
    tol: float = DEFAULT_TOL,
) -> DiscreteMeasure:
    """Sweep a point charge using inversion instead of a quadratic solve.

    Inverting space about the charge location sends it to infinity; the
    swept measure is then the image of the capacitary equilibrium measure
    of the inverted region, transformed back.  Requires an analytic shape
    whose inversion image is again in the catalog, and the charge strictly
    off the region.
    """
    _check_weight(weight)
    (y,) = _as_points(point, spec.dim)
    if bool(region.contains(y)[0]):
        raise InvalidInput("the charge must lie strictly off the target set")
    shape_star = invert_shape(y, region.shape)
    star = build_region(shape_star, region.n_nodes, spec)
    eq = riesz_equilibrium(spec, star, tol=tol)
    return kelvin_transform(y, spec, eq.gamma).scaled(weight)


def green_equilibrium(gk: GreenKernel, f_region: Region) -> EquilibriumResult:
    """Capacitary measure of a compact node set relative to a domain.

    The node set must lie strictly inside the domain of ``gk``.  The Green
    Gram is the region's own free Gram, with its regularization radii,
    minus the potentials of the nodes' swept unit charges.  The kernel's
    tolerance serves both those sweeps and Gauss's problem over the Green
    Gram, whose minimizer x* has mass 1'x*, the relative (Green) capacity.
    """
    return _equilibrium_from_gram(_green_gram(gk, f_region), gk.tol)


def verify_green_minimality(
    gk: GreenKernel,
    f_region: Region,
    result: EquilibriumResult,
    n_competitors: int = 20,
    seed: int = PROBE_SEED,
    slack: float = 1e-9,
) -> dict:
    """Check the variational characterization of the relative equilibrium.

    ``result`` is ``green_equilibrium(gk, f_region)`` and carries its Green
    Gram matrix.  Random node-supported measures, rescaled so their Green
    potential is at least 1 everywhere on the nodes, must have energy at
    least the capacity, which is the energy of the equilibrium measure, up
    to the relative ``slack``, finite and nonnegative.  Returns the
    smallest ratio of the two observed.  ``n_competitors`` and ``seed`` must
    be whole numbers of at least 1 and 0; otherwise UnresolvedLayout.
    """
    _check_tolerance("slack", slack)
    n_competitors = _require_whole("n_competitors", n_competitors, 1)
    seed = _require_whole("seed", seed, 0)
    ggram = result.gram
    if not np.array_equal(ggram.nodes, f_region.nodes):
        raise InvalidInput("result must be the Green equilibrium of f_region's nodes")
    rng = np.random.default_rng(seed)
    n = ggram.n
    ratios = []
    for _ in range(n_competitors):
        v = rng.random(n) + 1e-3
        pot = ggram.entries @ v
        v = v / float(np.min(pot))
        e = float(v @ (ggram.entries @ v))
        ratios.append(e / result.capacity)
    min_ratio = float(np.min(ratios))
    return {
        "min_energy_ratio": min_ratio,
        "ok": bool(min_ratio >= 1.0 - slack),
        "n_competitors": n_competitors,
        "seed": seed,
    }
