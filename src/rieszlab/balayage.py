"""Sweeping (balayage) of discrete measures onto region node sets.

The swept measure is the best approximation, in kernel energy, of the
source among nonnegative measures supported on the region nodes.  At
charged nodes its potential matches the source potential exactly (up to
solver tolerance); away from the region it never exceeds the source
potential beyond a small discretization margin; mass and energy can only
decrease.  Every sweep reports these invariants alongside the measure.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .core import (
    DiscreteMeasure,
    KernelSpec,
    assemble_gram,
    cross_energy,
    dirac,
    potential_at,
)
from .equilibrium import riesz_equilibrium
from .errors import DimensionMismatch, NodesOutsideDomain, PointOutsideDomain, SolverFailure
from .kelvin import Inversion, invert_shape, kelvin_transform
from .regions import PROBE_SEED, Region, build_region, sample_points_off
from .solver import QPSolution, solve_nonneg_many

# Relative slack for the mass/energy monotonicity checks.
INEQ_SLACK = 1e-8

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SweepChecks:
    """Invariant report attached to a sweep."""

    mass_in: float
    mass_out: float
    mass_ok: bool
    energy_in: float
    energy_out: float
    energy_ok: bool
    node_equality_gap: float
    domination_excess: float
    domination_ok: bool
    n_probes: int
    probe_seed: int


@dataclass(frozen=True)
class SweepResult:
    swept: DiscreteMeasure
    solution: QPSolution
    checks: SweepChecks | None


@dataclass(frozen=True)
class SignedSweepResult:
    """``weights`` holds the signed swept weight of every region node."""

    swept: DiscreteMeasure
    weights: np.ndarray
    positive: SweepResult | None
    negative: SweepResult | None


def source_potentials_on_nodes(
    spec: KernelSpec, mu: DiscreteMeasure, region: Region
) -> np.ndarray:
    """Source potential evaluated at the region nodes, Gram-consistently.

    A source atom sitting exactly on a node contributes that node's
    regularized self-interaction, the Gram diagonal entry, instead of an
    infinity, so that a measure already supported on the nodes is a fixed
    point of sweeping.
    """
    gram = region.gram(spec)
    D = cdist(region.nodes, mu.points)
    coincident = D <= max(region.h_min, 0.0)
    np.copyto(D, 1.0, where=coincident)
    np.power(D, spec.exponent, out=D)
    np.copyto(D, gram.entries.diagonal()[:, None], where=coincident)
    return D @ mu.weights


def sweep(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region: Region,
    tol: float = 1e-10,
    tol_dom: float = 0.02,
    n_probes: int = 100,
    probe_seed: int = PROBE_SEED,
    run_checks: bool = True,
) -> SweepResult:
    """Sweep a nonnegative measure onto the region nodes.

    Raises SolverFailure if the quadratic solve does not converge.  With
    ``run_checks`` the result carries mass/energy monotonicity, the node
    potential-equality gap, and a probe-based domination check off the
    region (probes keep a standoff of three mean spacings from the nodes,
    where the discrete potential is a faithful stand-in for the continuum
    one; ``tol_dom`` is the allowed relative excess there).
    """
    B, (res,) = _sweep_columns(spec, [mu], region, tol)
    if run_checks:
        checks = _run_checks(spec, mu, region, B[:, 0], res, tol_dom, n_probes, probe_seed)
        res = replace(res, checks=checks)
    return res


def sweep_many(
    spec: KernelSpec,
    sources: list[DiscreteMeasure],
    region: Region,
    tol: float = 1e-10,
) -> list[SweepResult]:
    """Sweep several nonnegative measures onto the same region nodes.

    The sources share one solve through the region's Cholesky factor, and
    each result is the one ``sweep`` without checks returns for its source.
    SolverFailure is raised at the first source, in order, that does not
    converge; later sources are not solved.
    """
    return _sweep_columns(spec, sources, region, tol)[1]


def _sweep_columns(spec, sources, region, tol) -> tuple[np.ndarray, list[SweepResult]]:
    """Source potentials on the nodes, one column per source, and the sweeps."""
    B = np.empty((region.n_nodes, len(sources)), order="F")
    for j, mu in enumerate(sources):
        if mu.signed:
            raise ValueError("sweep requires a nonnegative measure; use sweep_signed")
        if mu.n_points == 0:
            raise ValueError("cannot sweep the zero measure")
        if mu.dim != region.dim:
            raise ValueError("measure and region dimensions differ")
        B[:, j] = source_potentials_on_nodes(spec, mu, region)
    if not sources:
        return B, []
    sols = solve_nonneg_many(region.gram(spec), B, tol=tol)
    if not sols[-1].converged:
        raise SolverFailure(
            f"sweep did not converge: kkt residual {sols[-1].kkt_residual:.3e} "
            f"after {sols[-1].iterations} iterations ({sols[-1].method})"
        )
    results = []
    for sol in sols:
        support = sol.weights > 0.0
        swept = DiscreteMeasure._on_distinct_nodes(region.nodes[support], sol.weights[support])
        results.append(SweepResult(swept=swept, solution=sol, checks=None))
    return B, results


def swept_potentials(
    spec: KernelSpec, results: list[SweepResult], region: Region, points
) -> np.ndarray:
    """Potentials of several sweeps onto one region, one column per result.

    The kernel block between the points and every region node is computed
    once; column j equals ``potential_at(spec, results[j].swept, points)``
    bit for bit.  Raises PointOutsideDomain if a point coincides with a
    region node: it lies on the target set, where no caller evaluates.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != spec.dim:
        raise DimensionMismatch(f"points must have dimension {spec.dim}")
    D = cdist(X, region.nodes)
    if (D == 0.0).any():
        raise PointOutsideDomain("an evaluation point coincides with a region node")
    block = D ** spec.exponent
    out = np.empty((len(X), len(results)))
    for j, res in enumerate(results):
        w = res.solution.weights
        support = w > 0.0
        if support.all():
            out[:, j] = block @ w
        else:
            # block[:, support] is F-ordered; a C-ordered copy takes potential_at's BLAS path.
            out[:, j] = np.ascontiguousarray(block[:, support]) @ w[support]
    return out


def _run_checks(spec, mu, region, b, res, tol_dom, n_probes, probe_seed) -> SweepChecks:
    gram = region.gram(spec)
    w, swept = res.solution.weights, res.swept
    mass_in = mu.total_mass
    mass_out = swept.total_mass
    mass_ok = mass_out <= mass_in + INEQ_SLACK * max(1.0, mass_in)

    Kw = gram.entries @ w
    energy_out = float(w @ Kw)
    # Both energies use the region's regularization: the swept energy
    # bound comes from Cauchy-Schwarz on the combined node set, which only
    # holds under one consistent regularization.  An atom on a node takes
    # that node's self-term, as in the source potentials; the others take
    # the nominal radius.
    K_in = assemble_gram(spec, mu.points, reg_radius=gram.reg_radius).entries.copy()
    on_node = cdist(mu.points, region.nodes) <= max(region.h_min, 0.0)
    hit = np.flatnonzero(on_node.any(axis=1))
    K_in[hit, hit] = gram.entries.diagonal()[on_node[hit].argmax(axis=1)]
    energy_in = float(mu.weights @ (K_in @ mu.weights))
    energy_ok = energy_out <= energy_in + INEQ_SLACK * max(1.0, energy_in)

    support = w > 0.0
    resid = Kw - b
    if support.any():
        node_gap = float(
            np.max(np.abs(resid[support]) / np.maximum(np.abs(b[support]), TINY))
        )
    else:
        node_gap = 0.0

    probes = sample_points_off(region, n_probes, probe_seed)
    if len(probes):
        pot_src = potential_at(spec, mu, probes)
        pot_swp = potential_at(spec, swept, probes)
        excess = float(
            np.max((pot_swp - pot_src) / np.maximum(np.abs(pot_src), TINY))
        )
    else:
        excess = 0.0

    return SweepChecks(
        mass_in=mass_in,
        mass_out=mass_out,
        mass_ok=bool(mass_ok),
        energy_in=energy_in,
        energy_out=energy_out,
        energy_ok=bool(energy_ok),
        node_equality_gap=node_gap,
        domination_excess=excess,
        domination_ok=bool(excess <= tol_dom),
        n_probes=len(probes),
        probe_seed=probe_seed,
    )


def sweep_signed(
    spec: KernelSpec,
    nu: DiscreteMeasure,
    region: Region,
    tol: float = 1e-10,
) -> SignedSweepResult:
    """Sweep a signed measure by sweeping its positive and negative parts."""
    pos_part, neg_part = nu.positive_part(), nu.negative_part()
    parts = [p for p in (pos_part, neg_part) if p.n_points]
    results = iter(sweep_many(spec, parts, region, tol=tol))
    pos = next(results) if pos_part.n_points else None
    neg = next(results) if neg_part.n_points else None
    w = np.zeros(region.n_nodes)
    if pos is not None:
        w += pos.solution.weights
    if neg is not None:
        w -= neg.solution.weights
    support = w != 0.0
    swept = DiscreteMeasure(
        region.nodes[support], w[support], signed=bool(np.any(w < 0.0))
    )
    return SignedSweepResult(swept=swept, weights=w, positive=pos, negative=neg)


def verify_symmetry(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    region: Region,
    tol: float = 1e-10,
) -> dict:
    """Reciprocity of sweeping: <mu^A, nu> against <nu^A, mu>."""
    s_mu, s_nu = sweep_many(spec, [mu, nu], region, tol=tol)
    e_mu_nu = cross_energy(spec, s_mu.swept, nu)
    e_nu_mu = cross_energy(spec, s_nu.swept, mu)
    gap = abs(e_mu_nu - e_nu_mu) / max(abs(e_mu_nu), abs(e_nu_mu), TINY)
    return {"e_mu_nu": e_mu_nu, "e_nu_mu": e_nu_mu, "rel_gap": float(gap)}


def verify_integral_representation(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region: Region,
    tol: float = 1e-10,
    n_probes: int = 200,
    probe_seed: int = PROBE_SEED,
) -> dict:
    """Sweep of a sum against the sum of per-atom sweeps, at probe points.

    The two agree exactly when no nonnegativity constraint binds; binding
    constraints in the per-atom problems introduce a small gap that
    shrinks under refinement.
    """
    atoms = [dirac(mu.points[i], float(mu.weights[i])) for i in range(mu.n_points)]
    joint, *parts = sweep_many(spec, [mu, *atoms], region, tol=tol)
    probes = sample_points_off(region, n_probes, probe_seed)
    pots = swept_potentials(spec, [joint, *parts], region, probes)
    pot_joint = pots[:, 0]
    pot_sum = np.zeros(len(probes))
    mass_sum = 0.0
    for part, pot in zip(parts, pots[:, 1:].T):
        pot_sum += pot
        mass_sum += part.swept.total_mass
    rel = np.abs(pot_sum - pot_joint) / np.maximum(np.abs(pot_joint), TINY)
    mass_gap = abs(mass_sum - joint.swept.total_mass) / max(
        joint.swept.total_mass, TINY
    )
    return {
        "max_rel_gap": float(np.max(rel)),
        "mass_rel_gap": float(mass_gap),
        "n_probes": len(probes),
    }


def verify_transitivity(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region_a: Region,
    region_f: Region,
    tol: float = 1e-10,
    n_probes: int = 200,
    probe_seed: int = PROBE_SEED,
) -> dict:
    """Sweeping to a subset directly against sweeping in two stages.

    Requires every node of the inner region to belong to the outer set;
    the comparison is made on potentials at probes off the inner region.
    """
    if not bool(region_a.contains(region_f.nodes).all()):
        raise NodesOutsideDomain(
            "every node of the inner region must belong to the outer set"
        )
    direct = sweep(spec, mu, region_f, tol=tol, run_checks=False)
    staged_a = sweep(spec, mu, region_a, tol=tol, run_checks=False)
    staged = sweep(spec, staged_a.swept, region_f, tol=tol, run_checks=False)
    probes = sample_points_off(region_f, n_probes, probe_seed)
    p_direct = potential_at(spec, direct.swept, probes)
    p_staged = potential_at(spec, staged.swept, probes)
    rel = np.abs(p_staged - p_direct) / np.maximum(np.abs(p_direct), TINY)
    mass_gap = abs(staged.swept.total_mass - direct.swept.total_mass) / max(
        direct.swept.total_mass, TINY
    )
    return {
        "max_rel_gap": float(np.max(rel)),
        "mass_rel_gap": float(mass_gap),
        "n_probes": len(probes),
    }


def sweep_dirac_by_inversion(
    spec: KernelSpec,
    point,
    weight: float,
    region: Region,
    tol: float = 1e-10,
) -> DiscreteMeasure:
    """Sweep a point charge using inversion instead of a quadratic solve.

    Inverting space about the charge location sends it to infinity; the
    swept measure is then the image of the capacitary equilibrium measure
    of the inverted region, transformed back.  Requires an analytic shape
    whose inversion image is again in the catalog, and the charge strictly
    off the region.
    """
    y = np.asarray(point, dtype=float)
    if bool(region.contains(y[None, :])[0]):
        raise ValueError("the charge must lie strictly off the target set")
    shape_star = invert_shape(y, region.shape)
    star = build_region(shape_star, region.n_nodes, spec)
    eq = riesz_equilibrium(spec, star, tol=tol)
    return kelvin_transform(Inversion(y), spec, eq.gamma).scaled(weight)
