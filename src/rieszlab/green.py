"""Green kernels of domains complementary to a region.

For the open domain D complementary to a closed target set A, the Green
kernel subtracts from the free kernel the potential of the swept point
charge:  g(x, y) = k(x, y) - potential of the sweep of a unit charge at y
onto A, evaluated at x.  Every quantity with several poles (a Gram
matrix, the potential of a measure) sweeps the unit charges at all its
poles in one batch: the poles, an array of points, share one kernel block
with the region nodes and one multi-column solve against the region's
cached factor, and a pole whose unconstrained sweep is already
nonnegative skips block pivoting.  The swept node weights are kept, and
a Green Gram keeps the block too: its poles are its nodes, so the swept
potentials at the nodes are GEMVs over the block's rows.  Every Green
Gram takes its free-kernel part from a Region over its nodes, so one node
set has one regularization and one discrete Green energy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balayage import _check_inputs, _node_rows, _sweep_batch
from .core import (
    TINY,
    DiscreteMeasure,
    GramMatrix,
    KernelSpec,
    _as_points,
    _check_tolerance,
    _row_potentials,
    dirac,
    potential_at,
)
from .errors import NodesOutsideDomain, PointOutsideDomain
from .regions import PROBE_SEED, Region, cloud_region, sample_points_off


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Green kernel for the complement of a region's closed set.

    Holds the kernel, the region and the solver tolerance, checked by the
    input guard at construction and frozen; it keeps no solves between
    calls and compares by identity.
    """

    spec: KernelSpec
    region: Region
    tol: float = field(default=1e-10, kw_only=True)

    def __post_init__(self):
        _check_inputs(self.spec, self.region, self.tol)

    def domain_contains(self, points) -> np.ndarray:
        """Membership mask for the open domain (complement of the target set)."""
        return ~self.region.contains(points)


def _require_in_domain(gk: GreenKernel, points, what: str) -> None:
    if not gk.domain_contains(points).all():
        raise PointOutsideDomain(f"{what} must lie in the open domain off the target set")


def _require_green_nodes(gk: GreenKernel, nodes: np.ndarray) -> None:
    """NodesOutsideDomain unless every node lies in the open domain farther
    than ``h_min`` from the region nodes: a Green Gram's kernel rows put a
    nearer node on a region node."""
    if not gk.domain_contains(nodes).all() or (gk.region.on_node(nodes) >= 0).any():
        raise NodesOutsideDomain("Green Gram nodes must lie strictly inside the open domain")


def green_values(gk: GreenKernel, y, points) -> np.ndarray:
    """g(x, y) for one pole y and many evaluation points; +inf at x = y."""
    return green_potential(gk, dirac(y), points)


def green_eval(gk: GreenKernel, x, y) -> float:
    """Green kernel value at a pair of domain points; +inf on the diagonal."""
    return float(green_values(gk, y, x)[0])


def green_potential(gk: GreenKernel, nu: DiscreteMeasure, points) -> np.ndarray:
    """Green potential of a measure at domain points.

    Subtracts, atom by atom, the potential of each atom's swept unit
    charge; the atoms are swept in one batched solve.
    """
    X = _as_points(points, gk.spec.dim)
    _require_in_domain(gk, nu.points, "the measure's atoms")
    _require_in_domain(gk, X, "evaluation points")
    swept = _pole_sweeps(gk, nu.points)[1]
    return _green_potential_values(gk, nu, swept, X, _node_rows(gk.spec, gk.region, X))


def _pole_sweeps(gk: GreenKernel, poles: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Kernel rows of the poles against the region nodes, and the swept node
    weights of the unit charges at the poles, from one batch."""
    block, sols = _sweep_batch(gk.spec, gk.region, poles, gk.tol)
    return block.T, [sol.weights for sol in sols]


def _green_potential_values(
    gk: GreenKernel, nu: DiscreteMeasure, swept: list[np.ndarray], X: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Green potential of nu at X, given the swept weights of its atoms' unit
    charges and X's kernel rows against the region nodes."""
    vals = potential_at(gk.spec, nu, X)
    for weight, col in zip(nu.weights, _row_potentials(rows, swept).T):
        vals -= weight * col
    return vals


def _green_gram(
    gk: GreenKernel, F: Region, sweeps: tuple[np.ndarray, list[np.ndarray]] | None = None
) -> GramMatrix:
    """F's free-kernel Gram minus the symmetrized swept unit-charge potentials.

    ``sweeps`` is ``_pole_sweeps`` of F's nodes, swept here when not given;
    the swept potentials at the nodes are GEMVs over its kernel rows.  F's
    nodes must pass ``_require_green_nodes``.  The Gram is factored before it
    is returned; later solves reuse the factor.
    """
    _require_green_nodes(gk, F.nodes)
    rows, swept = _pole_sweeps(gk, F.nodes) if sweeps is None else sweeps
    kgram = F.gram(gk.spec)
    # Only F's entries are read from here on; the factor its condition check
    # cached is never solved with.
    kgram.release_factor()
    C = _row_potentials(rows, swept)
    ggram = GramMatrix(F.nodes, kgram.entries - 0.5 * (C + C.T))
    ggram.cholesky()
    return ggram


def green_gram(gk: GreenKernel, nodes) -> GramMatrix:
    """Regularized Green Gram matrix over a node set strictly inside the domain.

    The free-kernel part is the Gram of ``cloud_region(nodes, spec)``, with
    that region's regularization radii, so it equals the Green Gram
    ``green_equilibrium`` builds over a region with the same nodes.  The
    correction subtracts the potential of each node's swept unit charge,
    column by column, and the result is symmetrized.  A single node has no
    spacing and raises ValueError; a node much nearer A than the spacing can
    make the Gram indefinite, which raises IllConditioned.
    """
    return _green_gram(gk, cloud_region(nodes, gk.spec))


def verify_energy_decomposition(gk: GreenKernel, nu: DiscreteMeasure) -> dict:
    """Green energy against free energy minus swept energy, same regularization.

    The identity ||nu||_g^2 = ||nu||^2 - ||nu^A||^2 is exact whenever the
    sweep of nu keeps every node charged; binding positivity constraints
    introduce a small one-sided gap.
    """
    if nu.n_points < 2:
        raise ValueError("energy decomposition needs at least two atoms")
    # checked before the batch solve; _green_gram checks the same nodes again
    _require_green_nodes(gk, nu.points)
    F = cloud_region(nu.points, gk.spec)
    # One batch sweeps the unit charges at nu's atoms, for the Green Gram,
    # and nu's positive and negative parts, for the swept energy.
    signed_parts = ((nu.positive_part(), 1.0), (nu.negative_part(), -1.0))
    parts = [(p, sign) for p, sign in signed_parts if p.n_points]
    points = np.concatenate([nu.points, *(p.points for p, _ in parts)])
    weights = [np.ones(1)] * nu.n_points + [p.weights for p, _ in parts]
    block, sols = _sweep_batch(gk.spec, gk.region, points, gk.tol, weights)
    n = nu.n_points
    ggram = _green_gram(gk, F, (block[:, :n].T, [sol.weights for sol in sols[:n]]))
    e_green = float(nu.weights @ (ggram.entries @ nu.weights))
    e_free = float(nu.weights @ (F.gram(gk.spec).entries @ nu.weights))

    v = np.zeros(gk.region.n_nodes)
    for (_, sign), sol in zip(parts, sols[nu.n_points:]):
        v += sign * sol.weights
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
    support-side potentials of mu use the Green Gram over mu's atoms, whose
    diagonal is regularized as in ``green_gram`` (a point atom's raw
    potential at itself is infinite); the conclusion is tested
    at probe points with relative slack ``tol``, finite and nonnegative.
    When the precondition fails the check is vacuous.  The atoms of both
    measures are swept in one batch, and the sweeps serve both the support
    and the probe potentials.
    """
    _check_tolerance("tol", tol)
    _require_in_domain(gk, mu.points, "the dominated measure's atoms")
    if nu is None:
        nu = DiscreteMeasure.empty(gk.spec.dim)  # its Green potential is zero
    _require_in_domain(gk, nu.points, "the measure's atoms")
    probes = sample_points_off(gk.region, n_probes, probe_seed)
    rows, swept = _pole_sweeps(gk, np.concatenate([mu.points, nu.points]))
    m = mu.n_points
    mu_rows, mu_swept, nu_swept = rows[:m], swept[:m], swept[m:]
    if m == 1:
        # A lone atom has no spacing to regularize its own Green potential,
        # which is infinite: the gap is +inf whatever nu is.
        F, pre_gap, precondition_ok = None, np.inf, False
    else:
        F = cloud_region(mu.points, gk.spec)
        u_mu_self = _green_gram(gk, F, (mu_rows, mu_swept)).entries @ mu.weights
        u_nu_self = _green_potential_values(gk, nu, nu_swept, mu.points, mu_rows)
        pre_gap = float(np.max(u_mu_self - (c + u_nu_self)))
        scale = max(float(np.max(np.abs(c + u_nu_self))), 1.0)
        precondition_ok = bool(pre_gap <= tol * scale)

    # A point atom's potential diverges at the atom itself, so probes
    # within one typical atom spacing of the support only measure the
    # discretization, not the principle.
    if F is not None and len(probes):
        dist, _ = F.nearest_node(probes)
        probes = probes[dist >= F.spacing()[1]]
    if len(probes):
        probe_rows = _node_rows(gk.spec, gk.region, probes)
        u_mu = _green_potential_values(gk, mu, mu_swept, probes, probe_rows)
        u_nu = _green_potential_values(gk, nu, nu_swept, probes, probe_rows)
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
        "mass_dominating": nu.total_mass,
        "n_probes": int(len(probes)),
        "probe_seed": probe_seed,
    }
