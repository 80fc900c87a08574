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
    cloud_region,
    fibonacci_sphere,
    sphere_region,
)
from .thinness import mass_loss_test, thin_at_infinity_report, wiener_report

SCHEMA_VERSION = 1

COMMANDS = (
    "sweep",
    "equilibrium",
    "green-eval",
    "green-equilibrium",
    "kelvin-check",
    "wiener",
    "mass-loss",
    "verify-all",
)

_TOP_COMMON = {"schema", "name", "command", "kernel"}
_TOP_KEYS = {
    "sweep": _TOP_COMMON | {"region", "source", "probes", "tol", "tol_dom", "expected"},
    "equilibrium": _TOP_COMMON | {"region", "probes", "tol", "expected"},
    "green-eval": _TOP_COMMON | {"region", "x", "y", "tol", "expected"},
    "green-equilibrium": _TOP_COMMON | {"region", "compact", "tol", "expected"},
    "kelvin-check": _TOP_COMMON | {"center", "measure", "samples", "tol", "expected"},
    "wiener": _TOP_COMMON
    | {"region", "point", "ratio_q", "k_max", "shell_budget", "at_infinity", "expected"},
    "mass-loss": _TOP_COMMON | {"region", "source", "loss_margin", "tol", "expected"},
    "verify-all": _TOP_COMMON | {"n"},
}
_EXPECTED_KEYS = {
    "sweep": {"mass", "tol", "identity_gap"},
    "equilibrium": {"capacity", "tol"},
    "green-eval": {"value", "tol"},
    "green-equilibrium": {"capacity", "tol"},
    "kelvin-check": {"gap", "tol"},
    "wiener": {"classification", "thin"},
    "mass-loss": {"strict_loss"},
}
_SHAPE_KEYS = {
    "ball": {"shape", "center", "radius"},
    "ball-complement": {"shape", "center", "radius"},
    "sphere": {"shape", "center", "radius"},
    "half-space": {"shape", "normal", "offset"},
    "union": {"shape", "parts"},
    "cloud": {"shape", "points"},
}
_TOL_OVERRIDE_KEYS = {"tol", "tol_dom", "loss_margin"}


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"unknown key '{key}' in {where}")


def _shape_from_doc(doc: dict) -> Shape:
    if not isinstance(doc, dict) or "shape" not in doc:
        raise SchemaError("shape description must be an object with a 'shape' key")
    kind = doc["shape"]
    if kind not in _SHAPE_KEYS:
        raise SchemaError(f"unknown shape '{kind}'")
    _check_keys(doc, _SHAPE_KEYS[kind] | {"n", "extent"}, f"shape '{kind}'")
    if kind == "ball":
        return Ball(doc["center"], doc["radius"])
    if kind == "ball-complement":
        return BallComplement(doc["center"], doc["radius"])
    if kind == "sphere":
        return SphereShell(doc["center"], doc["radius"])
    if kind == "half-space":
        return HalfSpace(doc["normal"], doc["offset"])
    if kind == "union":
        return UnionShape([_shape_from_doc(p) for p in doc["parts"]])
    return PointCloud(doc["points"])


def _region_from_doc(doc: dict, spec: KernelSpec) -> Region:
    shape = _shape_from_doc(doc)
    if isinstance(shape, PointCloud):
        return cloud_region(doc["points"], spec)
    if "n" not in doc:
        raise SchemaError("region requires a node count 'n'")
    return build_region(shape, int(doc["n"]), spec, extent=doc.get("extent"))


def _measure_from_doc(doc: dict) -> DiscreteMeasure:
    try:
        return DiscreteMeasure.from_json_dict(doc)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _kernel_from_doc(doc: dict | None) -> KernelSpec:
    doc = doc or {}
    _check_keys(doc, {"alpha", "dim"}, "kernel")
    return KernelSpec(alpha=float(doc.get("alpha", 2.0)), dim=int(doc.get("dim", 3)))


def validate_scenario(doc) -> None:
    """Strict structural validation; raises SchemaError naming bad keys."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"scenario requires \"schema\": {SCHEMA_VERSION}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command '{command}'")
    _check_keys(doc, _TOP_KEYS[command], f"command '{command}'")
    if "probes" in doc:
        _check_keys(doc["probes"], {"n", "seed"}, "probes")
    if "samples" in doc:
        _check_keys(doc["samples"], {"n", "seed"}, "samples")
    if "expected" in doc:
        _check_keys(doc["expected"], _EXPECTED_KEYS[command], "expected")


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


def _row(name, value, expected=None, tol=None):
    passed = None
    if expected is not None and tol is not None:
        if expected == 0.0:
            passed = bool(abs(value) <= tol)
        else:
            passed = bool(abs(value - expected) / abs(expected) <= tol)
    return {"name": name, "value": value, "expected": expected, "tol": tol, "passed": passed}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, np.floating, np.integer)):
        return repr(float(value))
    return str(value)


def _rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "expected", "tol", "passed"])
    for r in rows:
        writer.writerow(
            [
                r["name"],
                _csv_cell(r["value"]),
                _csv_cell(r["expected"]),
                _csv_cell(r["tol"]),
                _csv_cell(r["passed"]),
            ]
        )
    return buf.getvalue()


def _failed_names(rows, extra=()) -> list[str]:
    names = [r["name"] for r in rows if r["passed"] is False]
    names.extend(extra)
    return names


# ---------------------------------------------------------------------------
# Command runners.  Each returns (payload, rows, failed-property names).


def _run_sweep(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    region = _region_from_doc(scen["region"], spec)
    mu = _measure_from_doc(scen["source"])
    probes = scen.get("probes", {})
    res = sweep(
        spec,
        mu,
        region,
        tol=float(scen.get("tol", 1e-10)),
        tol_dom=float(scen.get("tol_dom", 0.02)),
        n_probes=int(probes.get("n", 100)),
        probe_seed=int(probes.get("seed", seed)),
    )
    checks = res.checks
    expected = scen.get("expected", {})
    rows = [
        _row("mass-in", checks.mass_in),
        _row(
            "mass-out",
            checks.mass_out,
            expected.get("mass"),
            expected.get("tol") if "mass" in expected else None,
        ),
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
        tol_id = expected.get("tol", 1e-6)
        rows.append(_row("identity-gap", gap, 0.0, tol_id))

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "region": region.shape.descriptor() | {"n_nodes": region.n_nodes},
        "checks": {
            "mass_in": checks.mass_in,
            "mass_out": checks.mass_out,
            "mass_ok": checks.mass_ok,
            "energy_in": checks.energy_in,
            "energy_out": checks.energy_out,
            "energy_ok": checks.energy_ok,
            "node_equality_gap": checks.node_equality_gap,
            "domination_excess": checks.domination_excess,
            "domination_ok": checks.domination_ok,
            "n_probes": checks.n_probes,
            "probe_seed": checks.probe_seed,
        },
        "swept": {"mass": res.swept.total_mass, "n_atoms": res.swept.n_points},
        "solver": {
            "iterations": res.solution.iterations,
            "kkt_residual": res.solution.kkt_residual,
            "method": res.solution.method,
        },
    }
    return payload, rows, _failed_names(rows, failures)


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


def _run_equilibrium(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    region = _region_from_doc(scen["region"], spec)
    probes = scen.get("probes", {})
    eq = riesz_equilibrium(
        spec,
        region,
        tol=float(scen.get("tol", 1e-10)),
        n_probes=int(probes.get("n", 0)),
        probe_seed=int(probes.get("seed", seed)),
    )
    expected = scen.get("expected", {})
    rows = [
        _row(
            "capacity",
            eq.capacity,
            expected.get("capacity"),
            expected.get("tol") if "capacity" in expected else None,
        ),
        _row("min-energy", eq.min_energy),
        _row("node-potential-min", eq.node_potential_min),
        _row("node-potential-max", eq.node_potential_max),
    ]
    failures = []
    if eq.probe_potential_max is not None:
        rows.append(_row("probe-potential-max", eq.probe_potential_max))
        if eq.probe_potential_max > 1.02:
            failures.append("maximum-principle")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "equilibrium",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "region": region.shape.descriptor() | {"n_nodes": region.n_nodes},
        "capacity": eq.capacity,
        "min_energy": eq.min_energy,
        "node_potential": {
            "min": eq.node_potential_min,
            "max": eq.node_potential_max,
            "mean": eq.node_potential_mean,
        },
        "probe_potential_max": eq.probe_potential_max,
        "probe_seed": eq.probe_seed,
    }
    return payload, rows, _failed_names(rows, failures)


def _run_green_eval(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    region = _region_from_doc(scen["region"], spec)
    gk = GreenKernel(spec, region, tol=float(scen.get("tol", 1e-10)))
    value = green_eval(gk, scen["x"], scen["y"])
    expected = scen.get("expected", {})
    rows = [
        _row(
            "green-value",
            value,
            expected.get("value"),
            expected.get("tol") if "value" in expected else None,
        )
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "green-eval",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "region": region.shape.descriptor() | {"n_nodes": region.n_nodes},
        "x": list(map(float, scen["x"])),
        "y": list(map(float, scen["y"])),
        "value": value,
    }
    return payload, rows, _failed_names(rows)


def _run_green_equilibrium(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    region = _region_from_doc(scen["region"], spec)
    compact = _region_from_doc(scen["compact"], spec)
    gk = GreenKernel(spec, region, tol=float(scen.get("tol", 1e-10)))
    eq = green_equilibrium(gk, compact)
    expected = scen.get("expected", {})
    rows = [
        _row(
            "relative-capacity",
            eq.capacity,
            expected.get("capacity"),
            expected.get("tol") if "capacity" in expected else None,
        ),
        _row("node-potential-min", eq.node_potential_min),
        _row("node-potential-max", eq.node_potential_max),
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "green-equilibrium",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "region": region.shape.descriptor() | {"n_nodes": region.n_nodes},
        "compact": compact.shape.descriptor() | {"n_nodes": compact.n_nodes},
        "capacity": eq.capacity,
        "min_energy": eq.min_energy,
        "node_potential": {
            "min": eq.node_potential_min,
            "max": eq.node_potential_max,
            "mean": eq.node_potential_mean,
        },
    }
    return payload, rows, _failed_names(rows)


def _covariance_samples(center, n, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, len(center)))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 0.7 + 0.6 * rng.random(n)
    return radii[:, None] * dirs


def _run_kelvin_check(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    center = np.asarray(scen["center"], dtype=float)
    nu = _measure_from_doc(scen["measure"])
    samples_doc = scen.get("samples", {})
    samples = _covariance_samples(
        center, int(samples_doc.get("n", 50)), int(samples_doc.get("seed", seed))
    )
    keep = np.linalg.norm(samples - center, axis=1) > 1e-6
    gap = verify_potential_covariance(Inversion(center), spec, nu, samples[keep])
    expected = scen.get("expected", {})
    tol = expected.get("tol", 1e-12) if "gap" in expected else None
    rows = [_row("covariance-gap", gap, expected.get("gap"), tol)]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "kelvin-check",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "center": list(map(float, scen["center"])),
        "n_samples": int(np.sum(keep)),
        "covariance_gap": gap,
    }
    return payload, rows, _failed_names(rows)


def _run_wiener(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    shape = _shape_from_doc(scen["region"])
    point = scen["point"]
    kwargs = {
        "ratio_q": float(scen.get("ratio_q", 0.5)),
        "k_max": int(scen.get("k_max", 8)),
        "shell_budget": int(scen.get("shell_budget", 400)),
    }
    expected = scen.get("expected", {})
    failures = []
    if scen.get("at_infinity", False):
        rep_inf = thin_at_infinity_report(spec, shape, point, **kwargs)
        rep = rep_inf.wiener
        thin = rep_inf.thin
    else:
        rep = wiener_report(spec, shape, point, **kwargs)
        rep_inf = None
        thin = None
    rows = [
        _row(f"shell-{s.k}-term", s.term) for s in rep.shells
    ]
    rows.append(_row("fitted-ratio", rep.fitted_ratio if rep.fitted_ratio is not None else float("nan")))
    if "classification" in expected and rep.classification != expected["classification"]:
        failures.append("classification")
    if "thin" in expected and thin is not None and bool(expected["thin"]) != thin:
        failures.append("thin-at-infinity")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "wiener",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "point": list(map(float, point)),
        "ratio_q": kwargs["ratio_q"],
        "k_max": kwargs["k_max"],
        "classification": rep.classification,
        "fitted_ratio": rep.fitted_ratio,
        "degenerate": rep.degenerate,
        "at_infinity": bool(scen.get("at_infinity", False)),
        "thin": thin,
        "shells": [
            {
                "k": s.k,
                "r_lo": s.r_lo,
                "r_hi": s.r_hi,
                "n_nodes": s.n_nodes,
                "capacity": s.capacity,
                "term": s.term,
            }
            for s in rep.shells
        ],
    }
    return payload, rows, _failed_names(rows, failures)


def _run_mass_loss(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    region = _region_from_doc(scen["region"], spec)
    mu = _measure_from_doc(scen["source"])
    report = mass_loss_test(
        spec,
        mu,
        region,
        loss_margin=float(scen.get("loss_margin", 0.02)),
        tol=float(scen.get("tol", 1e-10)),
    )
    expected = scen.get("expected", {})
    failures = []
    if "strict_loss" in expected and bool(expected["strict_loss"]) != report["strict_loss"]:
        failures.append("strict-loss")
    rows = [
        _row("mass-in", report["mass_in"]),
        _row("mass-out", report["mass_out"]),
        _row("loss-fraction", report["loss_fraction"]),
        _row("strict-loss", 1.0 if report["strict_loss"] else 0.0),
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "mass-loss",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "region": region.shape.descriptor() | {"n_nodes": region.n_nodes},
        **report,
    }
    return payload, rows, _failed_names(rows, failures)


def run_battery(spec: KernelSpec, n: int, seed: int) -> list[dict]:
    """The standard verification battery on the Newtonian unit-ball geometry."""
    rows = []
    rows.append(
        _row(
            "kernel-unit-distance",
            riesz_kernel(spec, np.zeros(spec.dim), np.eye(spec.dim)[0]),
            1.0,
            1e-12,
        )
    )

    region_out = build_region(BallComplement(np.zeros(spec.dim), 1.0), n, spec)
    res = sweep(spec, dirac(np.zeros(spec.dim)), region_out, probe_seed=seed)
    rows.append(_row("sweep-origin-mass", res.checks.mass_out, 1.0, 0.01))
    far = np.zeros(spec.dim)
    far[0] = 2.0
    rows.append(
        _row(
            "sweep-origin-potential",
            float(potential_at(spec, res.swept, far[None, :])[0]),
            0.5,
            0.01,
        )
    )

    a1 = np.zeros(spec.dim)
    a2 = np.zeros(spec.dim)
    a2[0], a2[1] = 0.3, 0.2
    sym = verify_symmetry(spec, dirac(a1), dirac(a2), region_out)
    rows.append(_row("sweep-symmetry-gap", sym["rel_gap"], 0.0, 0.01))

    eq = riesz_equilibrium(spec, region_out, n_probes=100, probe_seed=seed)
    rows.append(_row("capacity-ball", eq.capacity, 1.0, 0.01))
    rows.append(_row("equilibrium-potential-max", eq.node_potential_max, 1.0, 0.02))

    gk = GreenKernel(spec, region_out)
    x = np.zeros(spec.dim)
    x[0] = 0.5
    rows.append(_row("green-center-value", green_eval(gk, x, np.zeros(spec.dim)), 1.0, 0.02))
    xb = np.zeros(spec.dim)
    xb[0] = 0.3
    yb = np.zeros(spec.dim)
    yb[1] = 0.4
    gxy = green_eval(gk, xb, yb)
    gyx = green_eval(gk, yb, xb)
    rows.append(
        _row("green-symmetry-gap", abs(gxy - gyx) / max(abs(gxy), abs(gyx)), 0.0, 0.02)
    )

    f_sphere = sphere_region(np.zeros(spec.dim), 0.5, max(200, min(800, n)), spec)
    geq = green_equilibrium(gk, f_sphere)
    rows.append(_row("green-equilibrium-capacity", geq.capacity, 1.0, 0.02))

    kel_points = np.array(
        [
            [0.3, 0.1, -0.2],
            [-0.4, 0.5, 0.1],
            [0.2, -0.3, 0.4],
            [0.0, 0.0, 0.6],
            [0.5, 0.2, 0.3],
        ]
    )[:, : spec.dim]
    kel = DiscreteMeasure(kel_points, [0.5, 1.0, 0.25, 0.75, 1.5])
    pole = np.zeros(spec.dim)
    pole[0] = 2.0
    samples = _covariance_samples(pole, 50, seed)
    gap = verify_potential_covariance(Inversion(pole), spec, kel, samples)
    rows.append(_row("kelvin-covariance-gap", gap, 0.0, 1e-12))

    region_ball = build_region(Ball(np.zeros(spec.dim), 1.0), n, spec)
    loss = mass_loss_test(spec, dirac(pole), region_ball)
    rows.append(_row("mass-loss-fraction", loss["loss_fraction"], 0.5, 0.01))

    inv_swept = sweep_dirac_by_inversion(spec, pole, 1.0, region_ball)
    rows.append(_row("inversion-sweep-mass", inv_swept.total_mass, 0.5, 0.01))
    return rows


def _run_verify_all(scen, seed):
    spec = _kernel_from_doc(scen.get("kernel"))
    n = int(scen.get("n", 2000))
    rows = run_battery(spec, n, seed)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify-all",
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
        "n": n,
        "checks": [
            {
                "name": r["name"],
                "value": r["value"],
                "expected": r["expected"],
                "tol": r["tol"],
                "passed": r["passed"],
            }
            for r in rows
        ],
        "all_passed": all(r["passed"] for r in rows if r["passed"] is not None),
    }
    return payload, rows, _failed_names(rows)


_RUNNERS = {
    "sweep": _run_sweep,
    "equilibrium": _run_equilibrium,
    "green-eval": _run_green_eval,
    "green-equilibrium": _run_green_equilibrium,
    "kelvin-check": _run_kelvin_check,
    "wiener": _run_wiener,
    "mass-loss": _run_mass_loss,
    "verify-all": _run_verify_all,
}


def _builtin_scenarios() -> dict:
    unit = [0.0, 0.0, 0.0]
    complement = {
        "shape": "ball-complement",
        "center": unit,
        "radius": 1.0,
        "n": 2000,
    }
    identity_nodes = fibonacci_sphere(500, 1.0, (0.0, 0.0, 0.0))[[0, 100, 300]]
    return {
        "ball-newtonian": {
            "schema": 1,
            "name": "ball-newtonian",
            "command": "verify-all",
            "kernel": {"alpha": 2.0, "dim": 3},
            "n": 2000,
        },
        "sweep-origin": {
            "schema": 1,
            "name": "sweep-origin",
            "command": "sweep",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": dict(complement),
            "source": {"points": [unit], "weights": [1.0]},
            "expected": {"mass": 1.0, "tol": 0.01},
        },
        "sweep-identity": {
            "schema": 1,
            "name": "sweep-identity",
            "command": "sweep",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": dict(complement, n=500),
            "source": {
                "points": identity_nodes.tolist(),
                "weights": [0.2, 0.3, 0.5],
            },
            "expected": {"identity_gap": 0.0, "tol": 1e-6},
        },
        "equilibrium-ball": {
            "schema": 1,
            "name": "equilibrium-ball",
            "command": "equilibrium",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": {"shape": "sphere", "center": unit, "radius": 1.0, "n": 2000},
            "probes": {"n": 100, "seed": PROBE_SEED},
            "expected": {"capacity": 1.0, "tol": 0.01},
        },
        "green-center": {
            "schema": 1,
            "name": "green-center",
            "command": "green-eval",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": dict(complement),
            "x": [0.5, 0.0, 0.0],
            "y": unit,
            "expected": {"value": 1.0, "tol": 0.02},
        },
        "green-equilibrium-sphere": {
            "schema": 1,
            "name": "green-equilibrium-sphere",
            "command": "green-equilibrium",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": dict(complement),
            "compact": {"shape": "sphere", "center": unit, "radius": 0.5, "n": 800},
            "expected": {"capacity": 1.0, "tol": 0.02},
        },
        "kelvin-exactness": {
            "schema": 1,
            "name": "kelvin-exactness",
            "command": "kelvin-check",
            "kernel": {"alpha": 2.0, "dim": 3},
            "center": [2.0, 0.0, 0.0],
            "measure": {
                "points": [
                    [0.3, 0.1, -0.2],
                    [-0.4, 0.5, 0.1],
                    [0.2, -0.3, 0.4],
                    [0.0, 0.0, 0.6],
                    [0.5, 0.2, 0.3],
                ],
                "weights": [0.5, 1.0, 0.25, 0.75, 1.5],
            },
            "samples": {"n": 50, "seed": 7},
            "expected": {"gap": 0.0, "tol": 1e-12},
        },
        "wiener-ball-point": {
            "schema": 1,
            "name": "wiener-ball-point",
            "command": "wiener",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": {"shape": "ball", "center": unit, "radius": 1.0},
            "point": [1.0, 0.0, 0.0],
            "ratio_q": 0.5,
            "k_max": 8,
            "shell_budget": 400,
            "expected": {"classification": "regular"},
        },
        "thin-ball-at-infinity": {
            "schema": 1,
            "name": "thin-ball-at-infinity",
            "command": "wiener",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": {"shape": "ball", "center": unit, "radius": 1.0},
            "point": [3.0, 0.0, 0.0],
            "at_infinity": True,
            "expected": {"classification": "irregular", "thin": True},
        },
        "mass-loss-ball": {
            "schema": 1,
            "name": "mass-loss-ball",
            "command": "mass-loss",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": {"shape": "ball", "center": unit, "radius": 1.0, "n": 2000},
            "source": {"points": [[2.0, 0.0, 0.0]], "weights": [1.0]},
            "expected": {"strict_loss": True},
        },
        "mass-loss-complement": {
            "schema": 1,
            "name": "mass-loss-complement",
            "command": "mass-loss",
            "kernel": {"alpha": 2.0, "dim": 3},
            "region": dict(complement),
            "source": {"points": [unit], "weights": [1.0]},
            "expected": {"strict_loss": False},
        },
    }


BUILTIN_SCENARIOS = _builtin_scenarios()

_SCENARIO_BLURBS = {
    "ball-newtonian": "full verification battery on the Newtonian unit-ball geometry",
    "sweep-origin": "sweep a unit charge at the origin onto the ball complement",
    "sweep-identity": "sweeping a measure already on the nodes returns it",
    "equilibrium-ball": "capacity of the unit sphere node set",
    "green-center": "Green kernel of the unit ball at half radius",
    "green-equilibrium-sphere": "relative capacity of the half-radius sphere",
    "kelvin-exactness": "potential transformation identity under inversion",
    "wiener-ball-point": "shell test at a boundary point of the solid ball",
    "thin-ball-at-infinity": "bounded sets are thin at infinity, via inversion",
    "mass-loss-ball": "sweeping onto a bounded set loses mass",
    "mass-loss-complement": "sweeping onto a ball complement preserves mass",
}


def load_scenario(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    if ref in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(BUILTIN_SCENARIOS[ref]))
    raise SchemaError(f"unknown scenario '{ref}' (not a file, not a builtin)")


def _apply_overrides(scen: dict, args) -> dict:
    if args.seed is not None:
        for key in ("probes", "samples"):
            if key in _TOP_KEYS.get(scen.get("command", ""), set()):
                scen.setdefault(key, {})["seed"] = args.seed
    for item in args.tol_override or []:
        if "=" not in item:
            raise SchemaError(f"tolerance override '{item}' is not KEY=VALUE")
        key, value = item.split("=", 1)
        if key not in _TOL_OVERRIDE_KEYS:
            raise SchemaError(f"unknown tolerance override key '{key}'")
        scen[key] = float(value)
    return scen


def _out_prefix(args, scen) -> Path:
    if args.out:
        return Path(args.out)
    return Path(scen.get("name", "scenario"))


def _cmd_run(args) -> int:
    scen = load_scenario(args.scenario)
    validate_scenario(scen)
    scen = _apply_overrides(scen, args)
    validate_scenario(scen)
    seed = args.seed if args.seed is not None else PROBE_SEED
    payload, rows, failures = _RUNNERS[scen["command"]](scen, seed)
    prefix = _out_prefix(args, scen)
    _write_atomic(Path(f"{prefix}.result.json"), dumps_deterministic(payload) + "\n")
    _write_atomic(Path(f"{prefix}.table.csv"), _rows_to_csv(rows))
    if failures:
        print(f"property failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def _with_node_count(scen: dict, n: int) -> dict:
    scen = json.loads(json.dumps(scen))
    if scen["command"] == "verify-all":
        scen["n"] = n
    elif "region" in scen and scen["region"].get("shape") != "cloud":
        scen["region"]["n"] = n
    else:
        raise SchemaError("this scenario has no node count to refine")
    return scen


def _cmd_refine(args) -> int:
    scen = load_scenario(args.scenario)
    validate_scenario(scen)
    scen = _apply_overrides(scen, args)
    if not args.n:
        print("error: refine requires at least one node count via --n", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else PROBE_SEED
    runs = []
    csv_rows = []
    for n in args.n:
        scen_n = _with_node_count(scen, int(n))
        validate_scenario(scen_n)
        _, rows, _ = _RUNNERS[scen_n["command"]](scen_n, seed)
        checked = [r for r in rows if r["expected"] is not None and r["tol"] is not None]
        errs = []
        for r in checked:
            if r["expected"] == 0.0:
                rel = abs(r["value"])
            else:
                rel = abs(r["value"] - r["expected"]) / abs(r["expected"])
            errs.append(rel)
            csv_rows.append(
                {
                    "n": int(n),
                    "check": r["name"],
                    "value": r["value"],
                    "expected": r["expected"],
                    "rel_error": rel,
                }
            )
        runs.append(
            {
                "n": int(n),
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
    prefix = _out_prefix(args, scen)
    _write_atomic(Path(f"{prefix}.result.json"), dumps_deterministic(payload) + "\n")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "check", "value", "expected", "rel_error"])
    for r in csv_rows:
        writer.writerow(
            [
                r["n"],
                r["check"],
                repr(float(r["value"])),
                repr(float(r["expected"])),
                repr(float(r["rel_error"])),
            ]
        )
    _write_atomic(Path(f"{prefix}.table.csv"), buf.getvalue())
    return 0


def _cmd_list(args) -> int:
    for name in sorted(BUILTIN_SCENARIOS):
        print(f"{name}: {_SCENARIO_BLURBS.get(name, '')}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Run potential-theory scenarios with deterministic outputs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario file path or builtin name")
    run_p.add_argument("--out", help="output path prefix (default: scenario name)")
    run_p.add_argument("--seed", type=int, help="override probe/sample seeds")
    run_p.add_argument(
        "--tol-override",
        action="append",
        metavar="KEY=VALUE",
        help="override a tolerance (keys: tol, tol_dom, loss_margin)",
    )
    run_p.set_defaults(func=_cmd_run)

    ref_p = sub.add_parser("refine", help="re-run a scenario over node counts")
    ref_p.add_argument("scenario")
    ref_p.add_argument("--n", type=int, nargs="*", default=[], help="node counts")
    ref_p.add_argument("--out", help="output path prefix")
    ref_p.add_argument("--seed", type=int)
    ref_p.add_argument("--tol-override", action="append", metavar="KEY=VALUE")
    ref_p.set_defaults(func=_cmd_refine)

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
