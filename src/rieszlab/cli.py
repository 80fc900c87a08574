"""Command-line front end: scenario runner with deterministic outputs.

``rieszlab run <scenario>`` executes a JSON scenario (a file path or a
builtin name) and writes ``<prefix>.result.json`` and
``<prefix>.table.csv``.  Outputs are deterministic: fixed seeds, sorted
keys, shortest round-trip float formatting, no timestamps, and atomic
replace-on-write.  Exit codes: 0 success, 1 usage or runtime error,
2 a named property check failed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .balayage import (
    sweep,
    sweep_dirac_by_inversion,
    verify_symmetry,
)
from .core import DiscreteMeasure, KernelSpec, dirac, potential_at, riesz_kernel
from .equilibrium import green_equilibrium, riesz_equilibrium
from .errors import RieszLabError, SchemaError
from .green import GreenKernel, green_eval
from .kelvin import Inversion, verify_potential_covariance
from .regions import (
    PROBE_SEED,
    Ball,
    BallComplement,
    HalfSpace,
    PointCloud,
    Region,
    Shape,
    SphereShell,
    UnionShape,
    build_region,
    fibonacci_sphere,
    sphere_region,
)
from .thinness import mass_loss_test, thin_at_infinity_report, wiener_report

SCHEMA_VERSION = 1

_TOP_COMMON = {"schema", "name", "command", "kernel"}
# shape -> (class, the fields passed to it in order)
_SHAPES = {
    "ball": (Ball, ("center", "radius")),
    "ball-complement": (BallComplement, ("center", "radius")),
    "sphere": (SphereShell, ("center", "radius")),
    "half-space": (HalfSpace, ("normal", "offset")),
    "union": (UnionShape, ("parts",)),
    "cloud": (PointCloud, ("points",)),
}
_TOL_OVERRIDE_KEYS = {"tol", "tol_dom", "loss_margin"}


def _check_keys(doc, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"unknown key '{key}' in {where}")


def _point(value, where: str, dim: int) -> np.ndarray:
    """``value`` as a point of R^dim; SchemaError unless it is a list of dim numbers."""
    try:
        point = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        point = None
    if point is None or point.shape != (dim,):
        raise SchemaError(f"{where} must be a list of {dim} numbers")
    return point


def _number(value, where: str, kind=float):
    """``kind(value)``, for kind float or int; SchemaError unless ``value`` is a number."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where} must be a number") from None


def _shape_from_doc(doc: dict, dim: int) -> Shape:
    if not isinstance(doc, dict) or "shape" not in doc:
        raise SchemaError("shape description must be an object with a 'shape' key")
    kind = doc["shape"]
    if kind not in _SHAPES:
        raise SchemaError(f"unknown shape '{kind}'")
    cls, fields = _SHAPES[kind]
    _check_keys(doc, {"shape", "n", *fields}, f"shape '{kind}'")
    if kind == "union":
        if not isinstance(doc["parts"], list):
            raise SchemaError("union 'parts' must be a JSON list")
        return UnionShape([_shape_from_doc(p, dim) for p in doc["parts"]])
    if kind == "cloud":
        return PointCloud(doc["points"])
    return cls(*(
        _point(doc[f], f"shape '{kind}' '{f}'", dim)
        if f in ("center", "normal")
        else _number(doc[f], f"shape '{kind}' '{f}'")
        for f in fields
    ))


def _region_from_doc(doc: dict, spec: KernelSpec) -> Region:
    shape = _shape_from_doc(doc, spec.dim)
    if isinstance(shape, PointCloud):
        return Region(shape, shape.points)
    if "n" not in doc:
        raise SchemaError("region requires a node count 'n'")
    return build_region(shape, _number(doc["n"], f"shape '{doc['shape']}' 'n'", int), spec)


def _kernel_from_doc(doc: dict) -> KernelSpec:
    _check_keys(doc, {"alpha", "dim"}, "kernel")
    return KernelSpec(
        alpha=_number(doc.get("alpha", 2.0), "kernel 'alpha'"),
        dim=_number(doc.get("dim", 3), "kernel 'dim'", int),
    )


def validate_scenario(doc) -> None:
    """Strict structural validation; raises SchemaError naming bad keys."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"scenario requires \"schema\": {SCHEMA_VERSION}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command '{command}'")
    _, top_keys, expected_keys = COMMANDS[command]
    _check_keys(doc, top_keys, f"command '{command}'")
    for key in ("probes", "samples"):
        if key in doc:
            _check_keys(doc[key], {"n", "seed"}, key)
    if "expected" in doc:
        _check_keys(doc["expected"], expected_keys, "expected")


def _jsonable(x):
    """Convert to plain JSON-safe types; non-finite floats become strings."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not np.isfinite(x):
            return repr(x)
        return x
    return x


def dumps_deterministic(doc: dict) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, separators=(",", ":"))


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _rel_error(value, expected):
    if expected == 0.0:
        return abs(value)
    return abs(value - expected) / abs(expected)


def _row(name, value, expected=None, tol=None):
    passed = None
    if expected is not None and tol is not None:
        passed = bool(_rel_error(value, expected) <= tol)
    return {"name": name, "value": value, "expected": expected, "tol": tol, "passed": passed}


def _checked_row(name, value, expected: dict, key: str, default_tol=None):
    """A row checked against ``expected[key]``, if the scenario gives one."""
    tol = expected.get("tol", default_tol) if key in expected else None
    return _row(name, value, expected.get(key), tol)


_ROW_FIELDS = ("name", "value", "expected", "tol", "passed")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, np.floating, np.integer)):
        return repr(float(value))
    return str(value)


def _write_outputs(prefix, payload: dict, header, lines) -> None:
    _write_atomic(Path(f"{prefix}.result.json"), dumps_deterministic(payload) + "\n")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    _write_atomic(Path(f"{prefix}.table.csv"), buf.getvalue())


def _region_doc(region: Region) -> dict:
    return region.shape.descriptor() | {"n_nodes": region.n_nodes}


def _node_potential(eq) -> dict:
    return {
        "min": eq.node_potential_min,
        "max": eq.node_potential_max,
        "mean": eq.node_potential_mean,
    }


# ---------------------------------------------------------------------------
# Command runners.  Each takes (scenario, kernel, "expected" section, seed)
# and returns (its payload fields, rows, failed-property names that are not
# rows); _run_scenario adds the common envelope.


def _run_sweep(scen, spec, expected, seed):
    region = _region_from_doc(scen["region"], spec)
    mu = DiscreteMeasure.from_json_dict(scen["source"])
    probes = scen.get("probes", {})
    res = sweep(
        spec,
        mu,
        region,
        tol=_number(scen.get("tol", 1e-10), "'tol'"),
        tol_dom=_number(scen.get("tol_dom", 0.02), "'tol_dom'"),
        n_probes=_number(probes.get("n", 100), "probes 'n'", int),
        probe_seed=_number(probes.get("seed", seed), "probes 'seed'", int),
    )
    checks = res.checks
    rows = [
        _row("mass-in", checks.mass_in),
        _checked_row("mass-out", checks.mass_out, expected, "mass"),
        _row("energy-out", checks.energy_out),
        _row("node-equality-gap", checks.node_equality_gap),
        _row("domination-excess", checks.domination_excess),
    ]
    failures = []
    if not checks.mass_ok:
        failures.append("mass-monotone")
    if not checks.energy_ok:
        failures.append("energy-monotone")
    if not checks.domination_ok:
        failures.append("domination")

    if "identity_gap" in expected:
        gap = _identity_gap(spec, mu, region, res)
        rows.append(_checked_row("identity-gap", gap, expected, "identity_gap", default_tol=1e-6))

    fields = {
        "region": _region_doc(region),
        "checks": asdict(checks),
        "swept": {"mass": res.swept.total_mass, "n_atoms": res.swept.n_points},
        "solver": {
            "iterations": res.solution.iterations,
            "kkt_residual": res.solution.kkt_residual,
            "method": res.solution.method,
        },
    }
    return fields, rows, failures


def _identity_gap(spec, mu, region, res) -> float:
    from scipy.spatial.distance import cdist

    D = cdist(mu.points, region.nodes)
    nearest = D.argmin(axis=1)
    tol_hit = max(region.h_min, 1e-15)
    if float(D.min(axis=1).max()) > tol_hit:
        return float("inf")
    v = np.zeros(region.n_nodes)
    np.add.at(v, nearest, mu.weights)
    w = res.solution.weights
    return float(np.max(np.abs(w - v)) / max(float(np.max(v)), 1e-300))


def _run_equilibrium(scen, spec, expected, seed):
    region = _region_from_doc(scen["region"], spec)
    probes = scen.get("probes", {})
    eq = riesz_equilibrium(
        spec,
        region,
        tol=_number(scen.get("tol", 1e-10), "'tol'"),
        n_probes=_number(probes.get("n", 0), "probes 'n'", int),
        probe_seed=_number(probes.get("seed", seed), "probes 'seed'", int),
    )
    rows = [
        _checked_row("capacity", eq.capacity, expected, "capacity"),
        _row("min-energy", eq.min_energy),
        _row("node-potential-min", eq.node_potential_min),
        _row("node-potential-max", eq.node_potential_max),
    ]
    failures = []
    if eq.probe_potential_max is not None:
        rows.append(_row("probe-potential-max", eq.probe_potential_max))
        if eq.probe_potential_max > 1.02:
            failures.append("maximum-principle")
    fields = {
        "region": _region_doc(region),
        "capacity": eq.capacity,
        "min_energy": eq.min_energy,
        "node_potential": _node_potential(eq),
        "probe_potential_max": eq.probe_potential_max,
        "probe_seed": eq.probe_seed,
    }
    return fields, rows, failures


def _run_green_eval(scen, spec, expected, seed):
    x = _point(scen["x"], "green-eval 'x'", spec.dim)
    y = _point(scen["y"], "green-eval 'y'", spec.dim)
    region = _region_from_doc(scen["region"], spec)
    gk = GreenKernel(spec, region, tol=_number(scen.get("tol", 1e-10), "'tol'"))
    value = green_eval(gk, x, y)
    rows = [_checked_row("green-value", value, expected, "value")]
    fields = {
        "region": _region_doc(region),
        "x": list(map(float, x)),
        "y": list(map(float, y)),
        "value": value,
    }
    return fields, rows, []


def _run_green_equilibrium(scen, spec, expected, seed):
    region = _region_from_doc(scen["region"], spec)
    compact = _region_from_doc(scen["compact"], spec)
    gk = GreenKernel(spec, region, tol=_number(scen.get("tol", 1e-10), "'tol'"))
    eq = green_equilibrium(gk, compact)
    rows = [
        _checked_row("relative-capacity", eq.capacity, expected, "capacity"),
        _row("node-potential-min", eq.node_potential_min),
        _row("node-potential-max", eq.node_potential_max),
    ]
    fields = {
        "region": _region_doc(region),
        "compact": _region_doc(compact),
        "capacity": eq.capacity,
        "min_energy": eq.min_energy,
        "node_potential": _node_potential(eq),
    }
    return fields, rows, []


def _covariance_samples(center, n, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, len(center)))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 0.7 + 0.6 * rng.random(n)
    return radii[:, None] * dirs


def _run_kelvin_check(scen, spec, expected, seed):
    center = _point(scen["center"], "kelvin-check 'center'", spec.dim)
    nu = DiscreteMeasure.from_json_dict(scen["measure"])
    samples_doc = scen.get("samples", {})
    samples = _covariance_samples(
        center,
        _number(samples_doc.get("n", 50), "samples 'n'", int),
        _number(samples_doc.get("seed", seed), "samples 'seed'", int),
    )
    keep = np.linalg.norm(samples - center, axis=1) > 1e-6
    gap = verify_potential_covariance(Inversion(center), spec, nu, samples[keep])
    rows = [_checked_row("covariance-gap", gap, expected, "gap", default_tol=1e-12)]
    fields = {
        "center": list(map(float, center)),
        "n_samples": int(np.sum(keep)),
        "covariance_gap": gap,
    }
    return fields, rows, []


def _run_wiener(scen, spec, expected, seed):
    shape = _shape_from_doc(scen["region"], spec.dim)
    point = _point(scen["point"], "wiener 'point'", spec.dim)
    kwargs = {
        "ratio_q": _number(scen.get("ratio_q", 0.5), "'ratio_q'"),
        "k_max": _number(scen.get("k_max", 8), "'k_max'", int),
        "shell_budget": _number(scen.get("shell_budget", 400), "'shell_budget'", int),
    }
    failures = []
    if scen.get("at_infinity", False):
        rep_inf = thin_at_infinity_report(spec, shape, point, **kwargs)
        rep = rep_inf.wiener
        thin = rep_inf.thin
    else:
        rep = wiener_report(spec, shape, point, **kwargs)
        thin = None
    rows = [_row(f"shell-{s.k}-term", s.term) for s in rep.shells]
    rows.append(_row("fitted-ratio", rep.fitted_ratio if rep.fitted_ratio is not None else float("nan")))
    if "classification" in expected and rep.classification != expected["classification"]:
        failures.append("classification")
    if "thin" in expected and thin is not None and bool(expected["thin"]) != thin:
        failures.append("thin-at-infinity")
    fields = {
        "point": list(map(float, point)),
        "ratio_q": kwargs["ratio_q"],
        "k_max": kwargs["k_max"],
        "classification": rep.classification,
        "fitted_ratio": rep.fitted_ratio,
        "degenerate": rep.degenerate,
        "at_infinity": bool(scen.get("at_infinity", False)),
        "thin": thin,
        "shells": [asdict(s) for s in rep.shells],
    }
    return fields, rows, failures


def _run_mass_loss(scen, spec, expected, seed):
    region = _region_from_doc(scen["region"], spec)
    mu = DiscreteMeasure.from_json_dict(scen["source"])
    report = mass_loss_test(
        spec,
        mu,
        region,
        loss_margin=_number(scen.get("loss_margin", 0.02), "'loss_margin'"),
        tol=_number(scen.get("tol", 1e-10), "'tol'"),
    )
    failures = []
    if "strict_loss" in expected and bool(expected["strict_loss"]) != report["strict_loss"]:
        failures.append("strict-loss")
    rows = [
        _row("mass-in", report["mass_in"]),
        _row("mass-out", report["mass_out"]),
        _row("loss-fraction", report["loss_fraction"]),
        _row("strict-loss", 1.0 if report["strict_loss"] else 0.0),
    ]
    fields = {"region": _region_doc(region), **report}
    return fields, rows, failures


# The measure that the battery and the kelvin-exactness builtin transform.
_KELVIN_MEASURE = {
    "points": [
        [0.3, 0.1, -0.2],
        [-0.4, 0.5, 0.1],
        [0.2, -0.3, 0.4],
        [0.0, 0.0, 0.6],
        [0.5, 0.2, 0.3],
    ],
    "weights": [0.5, 1.0, 0.25, 0.75, 1.5],
}


def run_battery(spec: KernelSpec, n: int, seed: int) -> list[dict]:
    """The standard verification battery on the Newtonian unit-ball geometry."""
    origin = np.zeros(spec.dim)
    e = np.eye(spec.dim)
    rows = [_row("kernel-unit-distance", riesz_kernel(spec, origin, e[0]), 1.0, 1e-12)]

    region_out = build_region(BallComplement(origin, 1.0), n, spec)
    res = sweep(spec, dirac(origin), region_out, probe_seed=seed)
    rows.append(_row("sweep-origin-mass", res.checks.mass_out, 1.0, 0.01))
    far_potential = float(potential_at(spec, res.swept, 2.0 * e[:1])[0])
    rows.append(_row("sweep-origin-potential", far_potential, 0.5, 0.01))

    sym = verify_symmetry(spec, dirac(origin), dirac(0.3 * e[0] + 0.2 * e[1]), region_out)
    rows.append(_row("sweep-symmetry-gap", sym["rel_gap"], 0.0, 0.01))

    eq = riesz_equilibrium(spec, region_out, n_probes=100, probe_seed=seed)
    rows.append(_row("capacity-ball", eq.capacity, 1.0, 0.01))
    rows.append(_row("equilibrium-potential-max", eq.node_potential_max, 1.0, 0.02))

    gk = GreenKernel(spec, region_out)
    rows.append(_row("green-center-value", green_eval(gk, 0.5 * e[0], origin), 1.0, 0.02))
    gxy = green_eval(gk, 0.3 * e[0], 0.4 * e[1])
    gyx = green_eval(gk, 0.4 * e[1], 0.3 * e[0])
    rows.append(
        _row("green-symmetry-gap", abs(gxy - gyx) / max(abs(gxy), abs(gyx)), 0.0, 0.02)
    )

    f_sphere = sphere_region(origin, 0.5, max(200, min(800, n)), spec)
    geq = green_equilibrium(gk, f_sphere)
    rows.append(_row("green-equilibrium-capacity", geq.capacity, 1.0, 0.02))

    kel_points = np.array(_KELVIN_MEASURE["points"])[:, : spec.dim]
    kel = DiscreteMeasure(kel_points, _KELVIN_MEASURE["weights"])
    pole = 2.0 * e[0]
    samples = _covariance_samples(pole, 50, seed)
    gap = verify_potential_covariance(Inversion(pole), spec, kel, samples)
    rows.append(_row("kelvin-covariance-gap", gap, 0.0, 1e-12))

    region_ball = build_region(Ball(origin, 1.0), n, spec)
    loss = mass_loss_test(spec, dirac(pole), region_ball)
    rows.append(_row("mass-loss-fraction", loss["loss_fraction"], 0.5, 0.01))

    inv_swept = sweep_dirac_by_inversion(spec, pole, 1.0, region_ball)
    rows.append(_row("inversion-sweep-mass", inv_swept.total_mass, 0.5, 0.01))
    return rows


def _run_verify_all(scen, spec, expected, seed):
    n = _number(scen.get("n", 2000), "'n'", int)
    rows = run_battery(spec, n, seed)
    fields = {
        "n": n,
        "checks": rows,
        "all_passed": all(r["passed"] for r in rows if r["passed"] is not None),
    }
    return fields, rows, []


# command -> (runner, accepted top-level keys, accepted "expected" keys)
COMMANDS = {
    "sweep": (
        _run_sweep,
        _TOP_COMMON | {"region", "source", "probes", "tol", "tol_dom", "expected"},
        {"mass", "tol", "identity_gap"},
    ),
    "equilibrium": (
        _run_equilibrium,
        _TOP_COMMON | {"region", "probes", "tol", "expected"},
        {"capacity", "tol"},
    ),
    "green-eval": (
        _run_green_eval,
        _TOP_COMMON | {"region", "x", "y", "tol", "expected"},
        {"value", "tol"},
    ),
    "green-equilibrium": (
        _run_green_equilibrium,
        _TOP_COMMON | {"region", "compact", "tol", "expected"},
        {"capacity", "tol"},
    ),
    "kelvin-check": (
        _run_kelvin_check,
        _TOP_COMMON | {"center", "measure", "samples", "expected"},
        {"gap", "tol"},
    ),
    "wiener": (
        _run_wiener,
        _TOP_COMMON
        | {"region", "point", "ratio_q", "k_max", "shell_budget", "at_infinity", "expected"},
        {"classification", "thin"},
    ),
    "mass-loss": (
        _run_mass_loss,
        _TOP_COMMON | {"region", "source", "loss_margin", "tol", "expected"},
        {"strict_loss"},
    ),
    "verify-all": (_run_verify_all, _TOP_COMMON | {"n"}, set()),
}


def _run_scenario(scen: dict, seed: int):
    """Validate and run a scenario: (payload, rows, failed-property names)."""
    validate_scenario(scen)
    command = scen["command"]
    spec = _kernel_from_doc(scen.get("kernel", {}))
    fields, rows, failures = COMMANDS[command][0](scen, spec, scen.get("expected", {}), seed)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
    }
    failed = [r["name"] for r in rows if r["passed"] is False]
    return payload | fields, rows, failed + failures


def _builtin(name: str, blurb: str, command: str, **fields):
    """A builtin scenario at alpha=2, dim=3, as ``(name, (blurb, document))``."""
    doc = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "command": command,
        "kernel": {"alpha": 2.0, "dim": 3},
        **fields,
    }
    return name, (blurb, doc)


def _builtin_scenarios() -> list:
    unit = [0.0, 0.0, 0.0]
    complement = {
        "shape": "ball-complement",
        "center": unit,
        "radius": 1.0,
        "n": 2000,
    }
    identity_nodes = fibonacci_sphere(500, 1.0, (0.0, 0.0, 0.0))[[0, 100, 300]]
    return [
        _builtin(
            "ball-newtonian",
            "full verification battery on the Newtonian unit-ball geometry",
            "verify-all",
            n=2000,
        ),
        _builtin(
            "sweep-origin",
            "sweep a unit charge at the origin onto the ball complement",
            "sweep",
            region=complement,
            source={"points": [unit], "weights": [1.0]},
            expected={"mass": 1.0, "tol": 0.01},
        ),
        _builtin(
            "sweep-identity",
            "sweeping a measure already on the nodes returns it",
            "sweep",
            region=dict(complement, n=500),
            source={
                "points": identity_nodes.tolist(),
                "weights": [0.2, 0.3, 0.5],
            },
            expected={"identity_gap": 0.0, "tol": 1e-6},
        ),
        _builtin(
            "equilibrium-ball",
            "capacity of the unit sphere node set",
            "equilibrium",
            region={"shape": "sphere", "center": unit, "radius": 1.0, "n": 2000},
            probes={"n": 100, "seed": PROBE_SEED},
            expected={"capacity": 1.0, "tol": 0.01},
        ),
        _builtin(
            "green-center",
            "Green kernel of the unit ball at half radius",
            "green-eval",
            region=complement,
            x=[0.5, 0.0, 0.0],
            y=unit,
            expected={"value": 1.0, "tol": 0.02},
        ),
        _builtin(
            "green-equilibrium-sphere",
            "relative capacity of the half-radius sphere",
            "green-equilibrium",
            region=complement,
            compact={"shape": "sphere", "center": unit, "radius": 0.5, "n": 800},
            expected={"capacity": 1.0, "tol": 0.02},
        ),
        _builtin(
            "kelvin-exactness",
            "potential transformation identity under inversion",
            "kelvin-check",
            center=[2.0, 0.0, 0.0],
            measure=_KELVIN_MEASURE,
            samples={"n": 50, "seed": 7},
            expected={"gap": 0.0, "tol": 1e-12},
        ),
        _builtin(
            "wiener-ball-point",
            "shell test at a boundary point of the solid ball",
            "wiener",
            region={"shape": "ball", "center": unit, "radius": 1.0},
            point=[1.0, 0.0, 0.0],
            ratio_q=0.5,
            k_max=8,
            shell_budget=400,
            expected={"classification": "regular"},
        ),
        _builtin(
            "thin-ball-at-infinity",
            "bounded sets are thin at infinity, via inversion",
            "wiener",
            region={"shape": "ball", "center": unit, "radius": 1.0},
            point=[3.0, 0.0, 0.0],
            at_infinity=True,
            expected={"classification": "irregular", "thin": True},
        ),
        _builtin(
            "mass-loss-ball",
            "sweeping onto a bounded set loses mass",
            "mass-loss",
            region={"shape": "ball", "center": unit, "radius": 1.0, "n": 2000},
            source={"points": [[2.0, 0.0, 0.0]], "weights": [1.0]},
            expected={"strict_loss": True},
        ),
        _builtin(
            "mass-loss-complement",
            "sweeping onto a ball complement preserves mass",
            "mass-loss",
            region=complement,
            source={"points": [unit], "weights": [1.0]},
            expected={"strict_loss": False},
        ),
    ]


# name -> (one-line description, scenario document)
BUILTIN_SCENARIOS = dict(_builtin_scenarios())


def load_scenario(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    if ref in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(BUILTIN_SCENARIOS[ref][1]))
    raise SchemaError(f"unknown scenario '{ref}' (not a file, not a builtin)")


def _load(args) -> tuple[dict, int]:
    """Load and validate ``args.scenario``, then apply ``--seed`` and
    ``--tol-override``; returns the scenario and the probe seed."""
    scen = load_scenario(args.scenario)
    validate_scenario(scen)
    if args.seed is not None:
        for key in ("probes", "samples"):
            if key in COMMANDS[scen["command"]][1]:
                scen.setdefault(key, {})["seed"] = args.seed
    for item in args.tol_override or []:
        if "=" not in item:
            raise SchemaError(f"tolerance override '{item}' is not KEY=VALUE")
        key, value = item.split("=", 1)
        if key not in _TOL_OVERRIDE_KEYS:
            raise SchemaError(f"unknown tolerance override key '{key}'")
        scen[key] = float(value)
    return scen, args.seed if args.seed is not None else PROBE_SEED


def _out_prefix(args, scen) -> Path:
    if args.out:
        return Path(args.out)
    return Path(scen.get("name", "scenario"))


def _cmd_run(args) -> int:
    scen, seed = _load(args)
    payload, rows, failures = _run_scenario(scen, seed)
    lines = [[_csv_cell(r[key]) for key in _ROW_FIELDS] for r in rows]
    _write_outputs(_out_prefix(args, scen), payload, _ROW_FIELDS, lines)
    if failures:
        print(f"property failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def _with_node_count(scen: dict, n: int) -> dict:
    scen = json.loads(json.dumps(scen))
    region = scen.get("region")
    if scen["command"] == "verify-all":
        scen["n"] = n
    # wiener lays out its own shells from the shape and never reads region.n
    elif (
        scen["command"] != "wiener"
        and isinstance(region, dict)
        and region.get("shape") != "cloud"
    ):
        region["n"] = n
    else:
        raise SchemaError("this scenario has no node count to refine")
    return scen


def _cmd_refine(args) -> int:
    scen, seed = _load(args)
    if not args.n:
        print("error: refine requires at least one node count via --n", file=sys.stderr)
        return 1
    runs = []
    lines = []
    for n in args.n:
        _, rows, _ = _run_scenario(_with_node_count(scen, n), seed)
        checked = [r for r in rows if r["expected"] is not None and r["tol"] is not None]
        errs = [_rel_error(r["value"], r["expected"]) for r in checked]
        for r, rel in zip(checked, errs):
            cells = (r["value"], r["expected"], rel)
            lines.append([n, r["name"], *(repr(float(v)) for v in cells)])
        runs.append(
            {
                "n": n,
                "max_rel_error": max(errs) if errs else None,
                "checks": [
                    {"check": r["name"], "value": r["value"], "expected": r["expected"]}
                    for r in checked
                ],
            }
        )
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "refine",
        "base_command": scen["command"],
        "runs": runs,
    }
    header = ["n", "check", "value", "expected", "rel_error"]
    _write_outputs(_out_prefix(args, scen), payload, header, lines)
    return 0


def _cmd_list(args) -> int:
    for name, (blurb, _) in sorted(BUILTIN_SCENARIOS.items()):
        print(f"{name}: {blurb}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Run potential-theory scenarios with deterministic outputs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.set_defaults(func=_cmd_run)
    ref_p = sub.add_parser("refine", help="re-run a scenario over node counts")
    ref_p.set_defaults(func=_cmd_refine)
    for p in (run_p, ref_p):
        p.add_argument("scenario", help="scenario file path or builtin name")
        p.add_argument("--out", help="output path prefix (default: scenario name)")
        p.add_argument("--seed", type=int, help="override probe/sample seeds")
        p.add_argument(
            "--tol-override",
            action="append",
            metavar="KEY=VALUE",
            help="override a tolerance (keys: tol, tol_dom, loss_margin)",
        )
    ref_p.add_argument("--n", type=int, nargs="*", default=[], help="node counts")

    list_p = sub.add_parser("list-scenarios", help="list builtin scenarios")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, RieszLabError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, KeyError):
            print(f"error: missing required key {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
