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

from .core import (
    DEFAULT_TOL,
    DiscreteMeasure,
    GramMatrix,
    KernelSpec,
    _as_points,
    _assemble_distinct,
    _check_tolerance,
    _relative,
    _row_potentials,
    cross_energy,
    dirac,
    potential_at,
)
from .errors import DimensionMismatch, InvalidInput, NodesOutsideDomain, PointOutsideDomain
from .regions import PROBE_SEED, Region, sample_points_off
from .solver import QPSolution, solve_nonneg_many

__all__ = ["SignedSweepResult", "SweepChecks", "SweepResult", "sweep", "sweep_many", "sweep_signed",
           "swept_potentials", "verify_integral_representation", "verify_symmetry",
           "verify_transitivity"]

# Relative slack for the mass/energy monotonicity checks.
INEQ_SLACK = 1e-8


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


def sweep(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region: Region,
    tol: float = DEFAULT_TOL,
    tol_dom: float = 0.02,
    n_probes: int = 100,
    probe_seed: int = PROBE_SEED,
) -> SweepResult:
    """Sweep a nonnegative measure onto the region nodes, with checks.

    The sweep is ``sweep_many``'s of the one source; the solver raises
    SolverFailure if the quadratic solve does not converge.  The result
    carries mass/energy monotonicity, the node potential-equality gap (the
    energy and the gap read the solution's ``b`` and ``Kw``), and a
    probe-based domination check off the region (probes keep a standoff of
    three mean spacings from the nodes, where the discrete potential is a
    faithful stand-in for the continuum one; ``tol_dom``, finite and
    nonnegative, is the allowed relative excess there).
    """
    _check_inputs(spec, region, tol, [mu])
    _check_tolerance("tol_dom", tol_dom)
    probes = sample_points_off(region, n_probes, probe_seed)
    (res,) = sweep_many(spec, [mu], region, tol)
    checks = _sweep_checks(spec, mu, region, res, tol_dom, probes, probe_seed)
    return replace(res, checks=checks)


def sweep_many(
    spec: KernelSpec,
    sources: list[DiscreteMeasure],
    region: Region,
    tol: float = DEFAULT_TOL,
) -> list[SweepResult]:
    """Sweep several nonnegative measures onto the same region nodes.

    The sources share one solve through the region's Cholesky factor.
    Each result is the sweep of its source with ``checks=None``: the
    measure and solution equal those ``sweep`` returns to rounding, without
    the invariant checks (bitwise for fewer than 12 sources; not always with
    one BLAS thread and 12 or more, as at N = 490, 500, 510 and 700).
    The solver raises SolverFailure at the first source, in order, that
    does not converge; later sources are not solved.
    """
    _check_inputs(spec, region, tol, sources)
    if not sources:
        return []
    rows = region.kernel_rows(spec, np.concatenate([mu.points for mu in sources]))[0]
    sols = _sweep_batch(region.gram(spec), rows.T, tol, [mu.weights for mu in sources])
    return [
        SweepResult(DiscreteMeasure._on_support(region.nodes, sol.weights), sol, None)
        for sol in sols
    ]


def _check_inputs(spec, region, tol, sources=()) -> None:
    """The input guard before any probe, Gram or solve: kernel dimension, ``tol``, sources."""
    _as_points(region.nodes, spec.dim)
    _check_tolerance("tol", tol, positive=True)
    for mu in sources:
        if mu.signed:
            raise InvalidInput("sweep requires a nonnegative measure; use sweep_signed")
        if mu.n_points == 0:
            raise InvalidInput("cannot sweep the zero measure")
        if mu.dim != region.dim:
            raise DimensionMismatch("measure and region dimensions differ")


def _sweep_batch(
    gram: GramMatrix, block: np.ndarray, tol: float, weights=None
) -> list[QPSolution]:
    """Sweeps of several nonnegative sources onto the nodes of ``gram``, in one solve.

    The one sweep solve of every kernel: ``gram`` is the Gram over the
    target nodes and ``block`` its kernel block against the stacked atoms
    of every source, one column per atom.  With ``weights`` None each
    atom is a unit charge, whose right-hand side is its block column.
    Otherwise ``weights`` lists each source's atom weights, in column order,
    and a source's right-hand side is its block columns times its weights.
    Returns the solutions, each holding its source's right-hand side as
    ``b``; the solver raises SolverFailure at the first source, in order,
    that does not converge.
    """
    if weights is None:
        B = block
    else:
        B = np.empty((len(block), len(weights)), order="F")
        start = 0
        for j, w in enumerate(weights):
            # One GEMV over a C-ordered copy of the source's own columns: the same
            # bits whichever sources share the batch.
            B[:, j] = np.ascontiguousarray(block[:, start:start + len(w)]) @ w
            start += len(w)
    return solve_nonneg_many(gram, B, tol=tol)


def swept_potentials(
    spec: KernelSpec, results: list[SweepResult], region: Region, points
) -> np.ndarray:
    """Potentials of several sweeps onto one region, one column per result.

    The kernel block between the points and every region node is computed
    once; column j equals ``potential_at(spec, results[j].swept, points)``
    bit for bit at points farther from each node than its radius, where no
    kernel entry reaches the node's Gram diagonal.  Raises PointOutsideDomain
    if a point lies within ``h_min`` of a region node: it sits on the target
    set, where no caller evaluates.
    """
    return _row_potentials(
        _node_rows(spec, region, points), [res.solution.weights for res in results]
    )


def _node_rows(spec: KernelSpec, region: Region, points) -> np.ndarray:
    """``Region.kernel_rows`` of evaluation points; none may sit on a node."""
    rows, on = region.kernel_rows(spec, points)
    if on.any():
        raise PointOutsideDomain("an evaluation point sits on a region node")
    return rows


def _sweep_checks(spec, mu, region, res, tol_dom, probes, probe_seed) -> SweepChecks:
    """The invariants of ``res``, the sweep of ``mu``, read from its solution's
    right-hand side ``b`` and its product ``Kw``."""
    swept, w, b, Kw = res.swept, res.solution.weights, res.solution.b, res.solution.Kw
    mass_in = mu.total_mass
    mass_out = swept.total_mass
    mass_ok = mass_out <= mass_in + INEQ_SLACK * max(1.0, mass_in)

    energy_out = float(w @ Kw)
    # Both energies use the region's regularization, ``Region.self_terms``
    # for mu's distinct atoms: the swept energy bound comes from
    # Cauchy-Schwarz on the combined node set, which only holds under one
    # consistent regularization.
    K_in = _assemble_distinct(spec, mu.points, region.self_terms(spec, mu.points)).entries
    energy_in = float(mu.weights @ (K_in @ mu.weights))
    energy_ok = energy_out <= energy_in + INEQ_SLACK * max(1.0, energy_in)

    support = w > 0.0
    gaps = _relative(np.abs(Kw[support] - b[support]), b[support])
    node_gap = float(np.max(gaps, initial=0.0))

    if len(probes):
        pot_src = potential_at(spec, mu, probes)
        pot_swp = potential_at(spec, swept, probes)
        excess = float(np.max(_relative(pot_swp - pot_src, pot_src)))
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
    tol: float = DEFAULT_TOL,
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
    swept = DiscreteMeasure._on_support(region.nodes, w)
    return SignedSweepResult(swept=swept, weights=w, positive=pos, negative=neg)


def verify_symmetry(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    region: Region,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Reciprocity of sweeping: <mu^A, nu> against <nu^A, mu>."""
    s_mu, s_nu = sweep_many(spec, [mu, nu], region, tol=tol)
    e_mu_nu = cross_energy(spec, s_mu.swept, nu)
    e_nu_mu = cross_energy(spec, s_nu.swept, mu)
    gap = _relative(abs(e_mu_nu - e_nu_mu), max(abs(e_mu_nu), abs(e_nu_mu)))
    return {"e_mu_nu": e_mu_nu, "e_nu_mu": e_nu_mu, "rel_gap": float(gap)}


def verify_integral_representation(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region: Region,
    tol: float = DEFAULT_TOL,
    n_probes: int = 200,
    probe_seed: int = PROBE_SEED,
) -> dict:
    """Sweep of a sum against the sum of per-atom sweeps, at probe points.

    The two agree exactly when no nonnegativity constraint binds; binding
    constraints in the per-atom problems introduce a small gap that
    shrinks under refinement.
    """
    _check_inputs(spec, region, tol, [mu])
    atoms = [dirac(mu.points[i], float(mu.weights[i])) for i in range(mu.n_points)]
    probes = sample_points_off(region, n_probes, probe_seed)
    joint, *parts = sweep_many(spec, [mu, *atoms], region, tol=tol)
    return _probe_gaps(spec, region, joint, parts, probes)


def verify_transitivity(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region_a: Region,
    region_f: Region,
    tol: float = DEFAULT_TOL,
    n_probes: int = 200,
    probe_seed: int = PROBE_SEED,
) -> dict:
    """Sweeping to a subset directly against sweeping in two stages.

    Requires every node of the inner region to belong to the outer set;
    the comparison is made on potentials at probes off the inner region.
    """
    for region in (region_a, region_f):
        _check_inputs(spec, region, tol, [mu])
    if not bool(region_a.contains(region_f.nodes).all()):
        raise NodesOutsideDomain(
            "every node of the inner region must belong to the outer set"
        )
    probes = sample_points_off(region_f, n_probes, probe_seed)
    (staged_a,) = sweep_many(spec, [mu], region_a, tol=tol)
    direct, staged = sweep_many(spec, [mu, staged_a.swept], region_f, tol=tol)
    return _probe_gaps(spec, region_f, direct, [staged], probes)


def _probe_gaps(spec, region, ref, parts, probes) -> dict:
    """The sweeps ``parts`` summed against the sweep ``ref``, all onto ``region``.

    Relative gaps of the potentials at ``probes`` off the region and of the masses.
    """
    pots = swept_potentials(spec, [ref, *parts], region, probes)
    pot_ref = pots[:, 0]
    pot_sum = np.zeros(len(probes))
    mass_sum = 0.0
    for part, pot in zip(parts, pots[:, 1:].T):
        pot_sum += pot
        mass_sum += part.swept.total_mass
    rel = _relative(np.abs(pot_sum - pot_ref), pot_ref)
    mass_gap = _relative(abs(mass_sum - ref.swept.total_mass), ref.swept.total_mass)
    return {
        "max_rel_gap": float(np.max(rel, initial=0.0)),
        "mass_rel_gap": float(mass_gap),
        "n_probes": len(probes),
    }
