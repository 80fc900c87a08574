"""Equilibrium measures and capacities, plain and relative to a domain.

The capacitary measure of a node set minimizes kernel energy among
probability measures on the nodes, rescaled so that its potential is one
on its support.  Its mass is the discrete capacity.  The same construction
over a Green Gram matrix yields the capacity of a compact relative to an
open domain.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DiscreteMeasure, GramMatrix, KernelSpec, potential_at
from .errors import SolverFailure
from .regions import PROBE_SEED, Region, sample_points_off
from .solver import QPSolution, solve_simplex

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class EquilibriumResult:
    """Capacitary measure of a node set with its diagnostics.

    ``gamma`` integrates to ``capacity``; its potential is 1 on charged
    nodes and at least 1 on uncharged ones, up to solver tolerance; its
    energy is minimal over ``gram``, a plain or a Green Gram matrix.
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


def _equilibrium_from_gram(gram: GramMatrix, tol: float, what: str) -> EquilibriumResult:
    sol = solve_simplex(gram, total=1.0, tol=tol)
    if not sol.converged:
        raise SolverFailure(
            f"{what} did not converge: kkt residual "
            f"{sol.kkt_residual:.3e} ({sol.method})"
        )
    min_energy = sol.objective
    gw = sol.weights / min_energy
    support = gw > 0.0
    node_pot = gram.entries @ gw
    return EquilibriumResult(
        gamma=DiscreteMeasure._on_distinct_nodes(gram.nodes[support], gw[support]),
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
    tol: float = 1e-10,
    n_probes: int = 0,
    probe_seed: int = PROBE_SEED,
) -> EquilibriumResult:
    """Capacitary measure and capacity of a region's node set.

    With ``n_probes`` > 0, also reports the largest potential value at
    probe points off the region, which the maximum principle keeps near 1.
    """
    eq = _equilibrium_from_gram(region.gram(spec), tol, "equilibrium solve")
    if n_probes <= 0:
        return eq
    probes = sample_points_off(region, n_probes, probe_seed)
    probe_max = float(np.max(potential_at(spec, eq.gamma, probes)))
    return replace(eq, probe_potential_max=probe_max, probe_seed=probe_seed)


def green_equilibrium(gk, f_region: Region, tol: float = 1e-10) -> EquilibriumResult:
    """Capacitary measure of a compact node set relative to a domain.

    ``gk`` is a GreenKernel; the node set must lie strictly inside its
    domain.  The returned mass is the relative (Green) capacity.
    """
    from .green import green_gram  # deferred: green depends on balayage

    ggram = green_gram(gk, f_region.nodes, reg_radius=f_region.reg_radius)
    return _equilibrium_from_gram(ggram, tol, "relative equilibrium solve")


def verify_green_minimality(
    gk,
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
    least the capacity, which is the energy of the equilibrium measure.
    Returns the smallest ratio of the two observed.
    """
    ggram = result.gram
    rng = np.random.default_rng(seed)
    n = f_region.n_nodes
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
