"""Green kernels of domains complementary to a region.

For the open domain D complementary to a closed target set A, the Green
kernel subtracts from the free kernel the potential of the swept point
charge:  g(x, y) = k(x, y) - potential of the sweep of a unit charge at y
onto A, evaluated at x.  Every quantity with several poles (a Gram
matrix, the potential of a measure) sweeps the unit charges at all its
poles in one batched solve against the region's cached factor.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .balayage import SweepResult, sweep_many, sweep_signed, swept_potentials
from .core import (
    DiscreteMeasure,
    GramMatrix,
    KernelSpec,
    assemble_gram,
    dirac,
    potential_at,
)
from .errors import NodesOutsideDomain, PointOutsideDomain
from .regions import (
    PROBE_SEED,
    REGION_REG_FACTOR,
    Region,
    nearest_neighbor_spacing,
    sample_points_off,
)

TINY = np.finfo(float).tiny


class GreenKernel:
    """Green kernel for the complement of a region's closed set.

    Holds the kernel, the region and the solver tolerance; it keeps no
    solves between calls.
    """

    def __init__(self, spec: KernelSpec, region: Region, *, tol: float = 1e-10):
        self.spec = spec
        self.region = region
        self.tol = tol

    def domain_contains(self, points) -> np.ndarray:
        """Membership mask for the open domain (complement of the target set)."""
        return ~self.region.contains(points)


def _require_in_domain(gk: GreenKernel, points, what: str) -> None:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if bool(gk.region.contains(X).any()):
        raise PointOutsideDomain(f"{what} must lie in the open domain off the target set")


def _require_gram_nodes_in_domain(gk: GreenKernel, nodes: np.ndarray) -> None:
    if bool(gk.region.contains(nodes).any()):
        raise NodesOutsideDomain(
            "Green Gram nodes must lie strictly inside the open domain"
        )


def green_values(gk: GreenKernel, y, points) -> np.ndarray:
    """g(x, y) for one pole y and many evaluation points."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    _require_in_domain(gk, y, "the pole")
    _require_in_domain(gk, X, "evaluation points")
    vals = _green_potential_values(gk, dirac(y), _pole_sweeps(gk, [y]), X)
    coincident = np.all(X == y, axis=1)
    vals[coincident] = np.inf
    return vals


def green_eval(gk: GreenKernel, x, y) -> float:
    """Green kernel value at a pair of domain points; +inf on the diagonal."""
    return float(green_values(gk, y, np.asarray(x, dtype=float)[None, :])[0])


def green_potential(gk: GreenKernel, nu: DiscreteMeasure, points) -> np.ndarray:
    """Green potential of a measure at domain points.

    Subtracts, atom by atom, the potential of each atom's swept unit
    charge; the atoms are swept in one batched solve.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    _require_in_domain(gk, nu.points, "the measure's atoms")
    _require_in_domain(gk, X, "evaluation points")
    return _green_potential_values(gk, nu, _pole_sweeps(gk, nu.points), X)


def _pole_sweeps(gk: GreenKernel, poles) -> list[SweepResult]:
    """Sweeps of the unit charges at the poles, in one batched solve."""
    return sweep_many(gk.spec, [dirac(y) for y in poles], gk.region, tol=gk.tol)


def _green_potential_values(
    gk: GreenKernel, nu: DiscreteMeasure, comps: list[SweepResult], X: np.ndarray
) -> np.ndarray:
    """Green potential of nu at X, given the sweeps of its atoms' unit charges."""
    vals = potential_at(gk.spec, nu, X).astype(float)
    swept = swept_potentials(gk.spec, comps, gk.region, X)
    for weight, col in zip(nu.weights, swept.T):
        vals -= weight * col
    return vals


def _green_gram_from_sweeps(
    gk: GreenKernel, kgram: GramMatrix, comps: list[SweepResult]
) -> GramMatrix:
    """Free-kernel Gram minus the symmetrized swept unit-charge potentials."""
    C = swept_potentials(gk.spec, comps, gk.region, kgram.nodes)
    return GramMatrix(kgram.nodes, kgram.entries - 0.5 * (C + C.T), kgram.reg_radius)


def green_gram(gk: GreenKernel, nodes) -> GramMatrix:
    """Regularized Green Gram matrix over a node set strictly inside the domain.

    The free-kernel part uses the free-kernel default radius, half the
    minimum node spacing, which keeps the matrix positive definite even on
    irregular clouds where the minimum spacing is far below the mean; the
    correction subtracts the potential of each node's swept unit charge,
    column by column, and the result is symmetrized.  A single node has no
    spacing and raises ValueError.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or len(nodes) == 0:
        raise ValueError("nodes must be a non-empty (n, dim) array")
    _require_gram_nodes_in_domain(gk, nodes)
    if len(nodes) < 2:
        raise ValueError("a Green Gram matrix needs at least two nodes")
    kgram = assemble_gram(gk.spec, nodes)
    return _green_gram_from_sweeps(gk, kgram, _pole_sweeps(gk, nodes))


def verify_energy_decomposition(gk: GreenKernel, nu: DiscreteMeasure) -> dict:
    """Green energy against free energy minus swept energy, same regularization.

    The identity ||nu||_g^2 = ||nu||^2 - ||nu^A||^2 is exact whenever the
    sweep of nu keeps every node charged; binding positivity constraints
    introduce a small one-sided gap.
    """
    if nu.n_points < 2:
        raise ValueError("energy decomposition needs at least two atoms")
    h = REGION_REG_FACTOR * nearest_neighbor_spacing(nu.points)[1]
    _require_gram_nodes_in_domain(gk, nu.points)
    kgram = assemble_gram(gk.spec, nu.points, reg_radius=h)
    ggram = _green_gram_from_sweeps(gk, kgram, _pole_sweeps(gk, nu.points))
    e_green = float(nu.weights @ (ggram.entries @ nu.weights))
    e_free = float(nu.weights @ (kgram.entries @ nu.weights))

    v = sweep_signed(gk.spec, nu, gk.region, tol=gk.tol).weights
    region_gram = gk.region.gram(gk.spec)
    e_swept = float(v @ (region_gram.entries @ v))

    rhs = e_free - e_swept
    gap = abs(e_green - rhs) / max(abs(e_green), abs(rhs), TINY)
    return {
        "green_energy": e_green,
        "free_energy": e_free,
        "swept_energy": e_swept,
        "rel_gap": float(gap),
    }


def verify_domination(
    gk: GreenKernel,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure | None = None,
    c: float = 0.0,
    n_probes: int = 200,
    probe_seed: int = PROBE_SEED,
    tol: float = 0.02,
) -> dict:
    """Domination principle for Green potentials.

    If the Green potential of mu is bounded by that of nu plus a constant
    on mu's own support, the same bound holds throughout the domain.  The
    support-side potentials of mu use a regularized Gram diagonal (a point
    atom's raw potential at itself is infinite); the conclusion is tested
    at probe points with relative slack ``tol``.  When the precondition
    fails the check is vacuous.  Each measure's atoms are swept once, and
    the sweeps serve both the support and the probe potentials.
    """
    _require_in_domain(gk, mu.points, "the dominated measure's atoms")
    mu_comps = _pole_sweeps(gk, mu.points)
    if mu.n_points >= 2:
        ggram = _green_gram_from_sweeps(gk, assemble_gram(gk.spec, mu.points), mu_comps)
        u_mu_self = ggram.entries @ mu.weights
    else:
        u_mu_self = np.array([np.inf])
    if nu is not None:
        _require_in_domain(gk, nu.points, "the measure's atoms")
        nu_comps = _pole_sweeps(gk, nu.points)
        u_nu_self = _green_potential_values(gk, nu, nu_comps, mu.points)
    else:
        u_nu_self = np.zeros(mu.n_points)
    pre_gap = float(np.max(u_mu_self - (c + u_nu_self)))
    scale = max(float(np.max(np.abs(c + u_nu_self))), 1.0)
    precondition_ok = bool(pre_gap <= tol * scale)

    probes = sample_points_off(gk.region, n_probes, probe_seed)
    inside = gk.domain_contains(probes)
    probes = probes[inside]
    # A point atom's potential diverges at the atom itself, so probes
    # within one typical atom spacing of the support only measure the
    # discretization, not the principle.
    if mu.n_points >= 2 and len(probes):
        spacing = nearest_neighbor_spacing(mu.points)[1]
        dist, _ = cKDTree(mu.points).query(probes)
        probes = probes[dist >= spacing]
    if len(probes):
        u_mu = _green_potential_values(gk, mu, mu_comps, probes)
        u_nu = (
            _green_potential_values(gk, nu, nu_comps, probes)
            if nu is not None
            else np.zeros(len(probes))
        )
        violation = float(
            np.max((u_mu - (c + u_nu)) / np.maximum(np.abs(c + u_nu), 1.0))
        )
    else:
        violation = 0.0
    return {
        "precondition_ok": precondition_ok,
        "precondition_gap": pre_gap,
        "max_violation": violation,
        "ok": bool((not precondition_ok) or violation <= tol),
        "vacuous": bool(not precondition_ok),
        "mass_dominated": mu.total_mass,
        "mass_dominating": (nu.total_mass if nu is not None else 0.0),
        "n_probes": int(len(probes)),
        "probe_seed": probe_seed,
    }
