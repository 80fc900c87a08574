"""Boundary regularity and thinness via shell capacities.

The regularity of a boundary point is decided by how fast the capacities
of dyadic shells of the set around the point decay: rescaled shell terms
that stay bounded away from zero mean the point is regular; geometrically
decaying terms mean the set is thin there.  Thinness at infinity reduces
to the same test at the image point under inversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balayage import _check_inputs, sweep_many
from .core import (DEFAULT_TOL, DiscreteMeasure, KernelSpec, _as_points, _check_tolerance, _is_real,
                   _require_whole)
from .equilibrium import riesz_equilibrium
from .errors import InvalidInput
from .kelvin import invert_shape
from .regions import MAX_COUNT, REGION_REG_FACTOR, Region, Shape, _require_shapes, cloud_region

__all__ = ["ShellStat", "ThinAtInfinityReport", "WienerReport", "classify_terms", "mass_loss_test",
           "thin_at_infinity_report", "wiener_report"]

# Number of trailing shells used for the decay fit, and the fitted
# shell-to-shell ratio below which the rescaled terms are judged summable.
K_TAIL = 4
TAIL_RATIO_CUTOFF = 0.9
# A tail term below this fraction of the largest term counts as vanishing.
TERM_FLOOR_FACTOR = 1e-3
# The shell scan's defaults, the same for wiener_report and thin_at_infinity_report.
RATIO_Q, K_MAX, SHELL_BUDGET = 0.5, 8, 400


@dataclass(frozen=True)
class ShellStat:
    k: int
    r_lo: float
    r_hi: float
    n_nodes: int
    capacity: float
    term: float


@dataclass(frozen=True)
class WienerReport:
    point: np.ndarray
    ratio_q: float
    k_max: int
    shells: list
    classification: str
    fitted_ratio: float | None
    degenerate: bool


def classify_terms(terms) -> tuple[str, float | None, bool]:
    """Classify a sequence of rescaled shell terms.

    Returns (classification, fitted_ratio, degenerate).  A vanishing tail
    is degenerate and immediately irregular; a fitted tail ratio below the
    cutoff means the terms are summable (irregular); a tail bounded below
    by a fixed fraction of the peak means divergence (regular); anything
    in between is inconclusive.
    """
    terms = np.asarray(terms, dtype=float)
    if len(terms) == 0 or float(terms.max(initial=0.0)) <= 0.0:
        return "irregular", None, True
    tail = terms[-K_TAIL:]
    if np.any(tail <= 0.0):
        return "irregular", None, True
    if len(tail) < 2:
        return "inconclusive", None, False
    ks = np.arange(len(tail), dtype=float)
    slope = float(np.polyfit(ks, np.log(tail), 1)[0])
    fitted_ratio = math.exp(slope)
    if fitted_ratio < TAIL_RATIO_CUTOFF:
        return "irregular", fitted_ratio, False
    floor = TERM_FLOOR_FACTOR * float(terms.max())
    if np.all(tail >= floor):
        return "regular", fitted_ratio, False
    return "inconclusive", fitted_ratio, False


def wiener_report(
    spec: KernelSpec,
    shape: Shape,
    point,
    ratio_q: float = RATIO_Q,
    k_max: int = K_MAX,
    shell_budget: int = SHELL_BUDGET,
) -> WienerReport:
    """Shell-capacity regularity test for a set at a point.

    Shell k is the part of the set at distance [q^(k+1), q^k) from the
    point.  Each shell's node capacity, rescaled by the kernel growth
    q^(k * (alpha - n)), contributes one term.  A run of more than K_TAIL
    consecutive empty shells ends the scan: its vanishing tail classifies
    as irregular and degenerate (the set simply is not there at small
    scales).  Raises UnresolvedLayout, an InvalidInput, unless ``k_max`` and
    ``shell_budget`` are whole numbers of at least 1, ``shell_budget`` at
    most MAX_COUNT: a scan of no shells, or of shells with no nodes, would
    report that same verdict about any set.  ``Shape.shell_nodes`` checks each
    shell: a shell too thin to lay out, or one that ``ratio_q ** k`` underflows
    to nothing, raises UnresolvedLayout.
    """
    _require_shapes(shape)
    (y,) = _as_points(point, spec.dim)
    if not (_is_real(ratio_q) and 0.0 < ratio_q < 1.0):
        raise InvalidInput("ratio_q must lie strictly between 0 and 1")
    k_max = _require_whole("k_max", k_max, 1)
    shell_budget = _require_whole("shell_budget", shell_budget, 1, most=MAX_COUNT)
    shells: list[ShellStat] = []
    empty_run = 0
    for k in range(k_max):
        r_hi = ratio_q**k
        r_lo = ratio_q ** (k + 1)
        nodes = shape.shell_nodes(y, r_lo, r_hi, shell_budget)
        if len(nodes) == 0:
            empty_run += 1
            shells.append(ShellStat(k, r_lo, r_hi, 0, 0.0, 0.0))
            if empty_run > K_TAIL:
                break
            continue
        empty_run = 0
        # A lone node has no spacing; it takes the same fraction of the shell width.
        lone_radius = REGION_REG_FACTOR * (r_hi - r_lo) if len(nodes) < 2 else None
        region = cloud_region(nodes, spec, reg_radius=lone_radius)
        cap = riesz_equilibrium(spec, region).capacity
        term = cap * ratio_q ** (k * spec.exponent)
        shells.append(ShellStat(k, r_lo, r_hi, len(nodes), cap, term))
    classification, fitted_ratio, degenerate = classify_terms([s.term for s in shells])
    return WienerReport(
        point=y,
        ratio_q=ratio_q,
        k_max=k_max,
        shells=shells,
        classification=classification,
        fitted_ratio=fitted_ratio,
        degenerate=degenerate,
    )


def mass_loss_test(
    spec: KernelSpec,
    mu: DiscreteMeasure,
    region: Region,
    loss_margin: float = 0.02,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Whether sweeping loses a definite fraction of the source mass.

    Mass escapes exactly when the complement of the target set is heavy
    enough near infinity (for bounded targets it always is).  The zero
    measure carries no mass to lose, so it never reports a strict loss.
    Raises InvalidInput unless ``loss_margin`` is finite and nonnegative.
    """
    _check_inputs(spec, region, tol)
    _check_tolerance("loss_margin", loss_margin)
    if mu.n_points == 0 or mu.total_mass == 0.0:
        _as_points(mu.points, spec.dim)  # sweep_many checks a measure it sweeps
        return {
            "mass_in": 0.0,
            "mass_out": 0.0,
            "loss_fraction": 0.0,
            "strict_loss": False,
            "vacuous": True,
        }
    (res,) = sweep_many(spec, [mu], region, tol=tol)
    mass_in = mu.total_mass
    mass_out = res.swept.total_mass
    return {
        "mass_in": mass_in,
        "mass_out": mass_out,
        "loss_fraction": float((mass_in - mass_out) / mass_in),
        "strict_loss": bool(mass_out < mass_in * (1.0 - loss_margin)),
        "vacuous": False,
    }


@dataclass(frozen=True)
class ThinAtInfinityReport:
    thin: bool
    inversion_center: np.ndarray
    image_descriptor: dict
    wiener: WienerReport


def thin_at_infinity_report(
    spec: KernelSpec,
    shape: Shape,
    inversion_center,
    ratio_q: float = RATIO_Q,
    k_max: int = K_MAX,
    shell_budget: int = SHELL_BUDGET,
) -> ThinAtInfinityReport:
    """Thinness of a set at infinity, by inversion to a finite point.

    Inversion about a point off the set exchanges infinity with that
    point, so the set is thin at infinity exactly when its inverted image
    is irregular at the inversion center.
    """
    _require_shapes(shape)
    (y,) = _as_points(inversion_center, spec.dim)
    if bool(shape.contains(y)[0]):
        raise InvalidInput("the inversion center must lie off the set")
    star = invert_shape(y, shape)
    rep = wiener_report(
        spec, star, y, ratio_q=ratio_q, k_max=k_max, shell_budget=shell_budget
    )
    return ThinAtInfinityReport(
        thin=bool(rep.classification == "irregular"),
        inversion_center=y,
        image_descriptor=star.descriptor(),
        wiener=rep,
    )
