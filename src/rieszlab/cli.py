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
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .balayage import sweep, verify_symmetry
from .core import DiscreteMeasure, KernelSpec, _relative, dirac, potential_at, riesz_kernel
from .equilibrium import green_equilibrium, riesz_equilibrium, sweep_dirac_by_inversion
from .errors import RieszLabError, SchemaError
from .green import GreenKernel, green_eval
from .kelvin import verify_potential_covariance
from .regions import (
    PROBE_SEED,
    SHAPES,
    Ball,
    BallComplement,
    PointCloud,
    Region,
    build_region,
    fibonacci_sphere,
    sphere_region,
)
from .thinness import mass_loss_test, thin_at_infinity_report, wiener_report

SCHEMA_VERSION = 1

_TOL_OVERRIDE_KEYS = {"tol", "tol_dom", "loss_margin"}


# A JSON number is exactly an int or a float: never a bool (an int subclass),
# a string or None.
_JSON_NUMBER_TYPES = frozenset((int, float))


def _is_json_number_rows(rows) -> bool:
    """Whether ``rows`` is a list of lists of JSON numbers; one pass over
    the entries, cheaper than converting them."""
    return (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        and set(map(type, chain.from_iterable(rows))) <= _JSON_NUMBER_TYPES
    )


# ---------------------------------------------------------------------------
# Field readers.  Each takes (value, where, kernel spec) and returns the
# field's value, or raises SchemaError naming ``where``: a top-level field
# by its key, a nested one as ``<section> '<key>'``.


def _read(doc, where: str, spec, table: dict, top: bool = False) -> dict:
    """Read the JSON object ``doc`` through ``table``, {key: (reader, default)}.

    A reader that is itself a table reads a section, a nested object.  A
    default of ``...`` marks a required key, and None an optional key that
    is left out when absent; any other default is read in place of an absent
    value.  Raises SchemaError naming ``where`` unless ``doc`` is an object,
    and at an unknown or a missing key.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    for key in doc:
        if key not in table:
            raise SchemaError(f"unknown key '{key}' in {where}")
    values = {}
    for key, (read, default) in table.items():
        if key in doc:
            value = doc[key]
        elif default is ...:
            raise SchemaError(f"missing key '{key}' in {where}")
        elif default is None:
            continue
        else:
            value = default
        if isinstance(read, dict):
            read = functools.partial(_read, table=read)
        values[key] = read(value, key if top else f"{where} '{key}'", spec)
    return values


def _number(value, where: str, spec=None) -> float:
    """``value`` as a float; SchemaError unless it is a JSON number."""
    if type(value) not in _JSON_NUMBER_TYPES:
        raise SchemaError(f"{where} must be a number")
    return float(value)


def _count(value, where: str, spec=None) -> int:
    """A nonnegative whole number (``300.0`` is one): a count, seed or dimension."""
    if not _number(value, where).is_integer():
        raise SchemaError(f"{where} must be a whole number")
    if value < 0:
        raise SchemaError(f"{where} must not be negative")
    return int(value)


def _boolean(value, where: str, spec=None) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be a JSON boolean")
    return value


def _string(value, where: str, spec=None) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    return value


def _numbers(value, where: str, spec=None) -> list:
    """A list of JSON numbers, such as a measure's weights."""
    if not _is_json_number_rows([value]):
        raise SchemaError(f"{where} must be a list of numbers")
    return value


def _point(value, where: str, spec: KernelSpec) -> np.ndarray:
    """``value`` as a point of R^dim; SchemaError unless it is a list of dim numbers."""
    if not (_is_json_number_rows([value]) and len(value) == spec.dim):
        raise SchemaError(f"{where} must be a list of {spec.dim} numbers")
    return np.array(value, dtype=float)


def _points(value, where: str, spec: KernelSpec) -> np.ndarray:
    """``value`` as an (n, dim) array; SchemaError unless it is a list of
    lists of dim numbers (an empty list is none)."""
    if not (_is_json_number_rows(value) and set(map(len, value)) <= {spec.dim}):
        raise SchemaError(f"{where} must be a list of lists of {spec.dim} numbers")
    return np.array(value, dtype=float).reshape(-1, spec.dim)


_KERNEL = {"alpha": (_number, 2.0), "dim": (_count, 3)}

_MEASURE = {"points": (_points, ...), "weights": (_numbers, ...), "signed": (_boolean, None)}


def _measure(doc, where: str, spec: KernelSpec) -> DiscreteMeasure:
    """A measure section as a DiscreteMeasure; an empty one is the zero measure in R^dim."""
    values = _read(doc, "measure", spec, _MEASURE)
    if len(values["points"]) != len(values["weights"]):
        raise SchemaError("measure 'weights' must have one entry per point")
    return DiscreteMeasure(**values)


def _parts(value, where: str, spec: KernelSpec) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a JSON list")
    return [_shape_from_doc(part, where, spec) for part in value]


# shape field -> reader
_SHAPE_FIELDS = {"center": _point, "radius": _number, "normal": _point, "offset": _number,
                 "points": _points, "parts": _parts}


def _shape_table(doc, where: str, region: bool) -> tuple[type, str, dict]:
    """The class of a shape section, its name in messages and its table:
    the class's fields, and the node count ``n`` of a region of an analytic
    shape (a cloud's nodes are its points)."""
    kind = doc.get("shape") if isinstance(doc, dict) else None
    if not (isinstance(kind, str) and kind in SHAPES):
        raise SchemaError(f"{where} must be an object whose 'shape' is one of {sorted(SHAPES)}")
    cls = SHAPES[kind]
    table = {"shape": (_string, ...)} | {f: (_SHAPE_FIELDS[f], ...) for f in cls.fields}
    if region and cls is not PointCloud:
        table["n"] = (_count, ...)
    return cls, f"shape '{kind}'", table


def _shape_from_doc(doc, where: str, spec: KernelSpec, region: bool = False):
    """A shape section as a Shape, or with ``region`` as a Region: an
    analytic shape's nodes laid out at its ``n``, a cloud's its points."""
    cls, label, table = _shape_table(doc, where, region)
    values = _read(doc, label, spec, table)
    shape = cls(*(values[f] for f in cls.fields))
    # a cloud lays out its own points, whatever the count
    return build_region(shape, values.get("n", 0), spec) if region else shape


_region_from_doc = functools.partial(_shape_from_doc, region=True)


class Scenario(NamedTuple):
    """A parsed scenario: the fields its document set, and the CLI's own defaults."""

    name: str
    command: str
    spec: KernelSpec
    fields: dict


def _command(doc) -> str:
    """The command of a scenario document with the supported schema."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"scenario requires \"schema\": {SCHEMA_VERSION}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command '{command}'")
    return command


def parse_scenario(doc) -> Scenario:
    """Check a scenario document against its command's field table and read
    it; raises SchemaError naming the first bad key or field."""
    command = _command(doc)
    table = COMMANDS[command][1]
    # The point fields need the kernel's dim, so the kernel is also read first.
    spec = KernelSpec(**_read(doc.get("kernel", {}), "kernel", None, _KERNEL))
    envelope = {"schema": (_count, ...), "command": (_string, ...),
                "name": (_string, "scenario"), "kernel": (_KERNEL, {})}
    values = _read(doc, f"command '{command}'", spec, envelope | table, top=True)
    return Scenario(values["name"], command, spec, {k: v for k, v in values.items() if k in table})


def _jsonable(x):
    """Convert to plain JSON-safe types; non-finite floats become strings."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        # A list of exact ints, or of exact finite floats, is already plain JSON.
        kinds = set(map(type, x))
        if kinds <= {int} or (kinds == {float} and all(map(math.isfinite, x))):
            return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
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
# Command runners.  Each takes the kernel and, by keyword, the parsed fields
# its scenario set, "expected" among them, and returns (its payload fields,
# rows, failed-property names that are not rows); _run_scenario adds the
# envelope.  A probes section's keys map to library parameters by _PROBE_ARGS.
_PROBE_ARGS = {"n": "n_probes", "seed": "probe_seed"}


def _run_sweep(spec, expected, region, source, probes, **options):
    options.update((_PROBE_ARGS[key], value) for key, value in probes.items())
    res = sweep(spec, source, region, **options)
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
        gap = _identity_gap(source, region, res)
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


def _identity_gap(mu, region, res) -> float:
    nearest = region.on_node(mu.points)
    if (nearest < 0).any():
        return float("inf")
    v = np.zeros(region.n_nodes)
    np.add.at(v, nearest, mu.weights)
    w = res.solution.weights
    return float(_relative(np.max(np.abs(w - v)), np.max(v)))


def _run_equilibrium(spec, expected, region, probes, **options):
    options.update((_PROBE_ARGS[key], value) for key, value in probes.items())
    eq = riesz_equilibrium(spec, region, **options)
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


def _run_green_eval(spec, expected, region, x, y, **options):
    value = green_eval(GreenKernel(spec, region, **options), x, y)
    rows = [_checked_row("green-value", value, expected, "value")]
    fields = {
        "region": _region_doc(region),
        "x": list(map(float, x)),
        "y": list(map(float, y)),
        "value": value,
    }
    return fields, rows, []


def _run_green_equilibrium(spec, expected, region, compact, **options):
    eq = green_equilibrium(GreenKernel(spec, region, **options), compact)
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


def _run_kelvin_check(spec, expected, center, measure, samples):
    samples = _covariance_samples(center, samples["n"], samples["seed"])
    keep = np.linalg.norm(samples - center, axis=1) > 1e-6
    gap = verify_potential_covariance(center, spec, measure, samples[keep])
    rows = [_checked_row("covariance-gap", gap, expected, "gap", default_tol=1e-12)]
    fields = {
        "center": list(map(float, center)),
        "n_samples": int(np.sum(keep)),
        "covariance_gap": gap,
    }
    return fields, rows, []


def _run_wiener(spec, expected, region, point, at_infinity, **options):
    failures = []
    if at_infinity:
        rep_inf = thin_at_infinity_report(spec, region, point, **options)
        rep, thin = rep_inf.wiener, rep_inf.thin
    else:
        rep, thin = wiener_report(spec, region, point, **options), None
    rows = [_row(f"shell-{s.k}-term", s.term) for s in rep.shells]
    rows.append(_row("fitted-ratio", rep.fitted_ratio if rep.fitted_ratio is not None else float("nan")))
    if "classification" in expected and rep.classification != expected["classification"]:
        failures.append("classification")
    if "thin" in expected and thin is not None and expected["thin"] != thin:
        failures.append("thin-at-infinity")
    fields = {
        "point": list(map(float, point)),
        "ratio_q": rep.ratio_q,
        "k_max": rep.k_max,
        "classification": rep.classification,
        "fitted_ratio": rep.fitted_ratio,
        "degenerate": rep.degenerate,
        "at_infinity": at_infinity,
        "thin": thin,
        "shells": [asdict(s) for s in rep.shells],
    }
    return fields, rows, failures


def _run_mass_loss(spec, expected, region, source, **options):
    report = mass_loss_test(spec, source, region, **options)
    failures = []
    if "strict_loss" in expected and expected["strict_loss"] != report["strict_loss"]:
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
    gap = float(_relative(abs(gxy - gyx), max(abs(gxy), abs(gyx))))
    rows.append(_row("green-symmetry-gap", gap, 0.0, 0.02))

    f_sphere = sphere_region(origin, 0.5, max(200, min(800, n)), spec)
    geq = green_equilibrium(gk, f_sphere)
    rows.append(_row("green-equilibrium-capacity", geq.capacity, 1.0, 0.02))

    kel_points = np.array(_KELVIN_MEASURE["points"])[:, : spec.dim]
    kel = DiscreteMeasure(kel_points, _KELVIN_MEASURE["weights"])
    pole = 2.0 * e[0]
    samples = _covariance_samples(pole, 50, seed)
    gap = verify_potential_covariance(pole, spec, kel, samples)
    rows.append(_row("kelvin-covariance-gap", gap, 0.0, 1e-12))

    region_ball = build_region(Ball(origin, 1.0), n, spec)
    loss = mass_loss_test(spec, dirac(pole), region_ball)
    rows.append(_row("mass-loss-fraction", loss["loss_fraction"], 0.5, 0.01))

    inv_swept = sweep_dirac_by_inversion(spec, pole, 1.0, region_ball)
    rows.append(_row("inversion-sweep-mass", inv_swept.total_mass, 0.5, 0.01))
    return rows


def _run_verify_all(spec, n, probes):
    rows = run_battery(spec, n, probes["seed"])
    fields = {
        "n": n,
        "checks": rows,
        "all_passed": all(r["passed"] for r in rows if r["passed"] is not None),
    }
    return fields, rows, []


# command -> (runner, {field: (reader, default)}), read by _read.  Every
# command also takes the optional "schema", "command", "name" and "kernel".
# "expected", its first field where it has one, is a section of optional keys,
# each checked against a result.  A field a runner passes to a library
# parameter has no default here: left out, it takes the library's.
COMMANDS = {
    "sweep": (
        _run_sweep,
        {
            "expected": ({"mass": (_number, None), "tol": (_number, None),
                          "identity_gap": (_number, None)}, {}),
            "region": (_region_from_doc, ...),
            "source": (_measure, ...),
            "probes": ({"n": (_count, None), "seed": (_count, None)}, {}),
            "tol": (_number, None),
            "tol_dom": (_number, None),
        },
    ),
    "equilibrium": (
        _run_equilibrium,
        {
            "expected": ({"capacity": (_number, None), "tol": (_number, None)}, {}),
            "region": (_region_from_doc, ...),
            "probes": ({"n": (_count, None), "seed": (_count, None)}, {}),
            "tol": (_number, None),
        },
    ),
    "green-eval": (
        _run_green_eval,
        {
            "expected": ({"value": (_number, None), "tol": (_number, None)}, {}),
            "region": (_region_from_doc, ...),
            "x": (_point, ...),
            "y": (_point, ...),
            "tol": (_number, None),
        },
    ),
    "green-equilibrium": (
        _run_green_equilibrium,
        {
            "expected": ({"capacity": (_number, None), "tol": (_number, None)}, {}),
            "region": (_region_from_doc, ...),
            "compact": (_region_from_doc, ...),
            "tol": (_number, None),
        },
    ),
    "kelvin-check": (
        _run_kelvin_check,
        {
            "expected": ({"gap": (_number, None), "tol": (_number, None)}, {}),
            "center": (_point, ...),
            "measure": (_measure, ...),
            "samples": ({"n": (_count, 50), "seed": (_count, PROBE_SEED)}, {}),
        },
    ),
    "wiener": (
        _run_wiener,
        {
            "expected": ({"classification": (_string, None), "thin": (_boolean, None)}, {}),
            "region": (_shape_from_doc, ...),
            "point": (_point, ...),
            "ratio_q": (_number, None),
            "k_max": (_count, None),
            "shell_budget": (_count, None),
            "at_infinity": (_boolean, False),
        },
    ),
    "mass-loss": (
        _run_mass_loss,
        {
            "expected": ({"strict_loss": (_boolean, None)}, {}),
            "region": (_region_from_doc, ...),
            "source": (_measure, ...),
            "loss_margin": (_number, None),
            "tol": (_number, None),
        },
    ),
    "verify-all": (_run_verify_all, {"n": (_count, 2000),
                                     "probes": ({"seed": (_count, PROBE_SEED)}, {})}),
}


def _run_scenario(scen: Scenario):
    """Run a parsed scenario: (payload, rows, failed-property names)."""
    runner = COMMANDS[scen.command][0]
    fields, rows, failures = runner(scen.spec, **scen.fields)
    failed = [r["name"] for r in rows if r["passed"] is False]
    return _envelope(scen.command, scen.spec) | fields, rows, failed + failures


def _envelope(command: str, spec: KernelSpec) -> dict:
    """The fields every result.json opens with."""
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "kernel": {"alpha": spec.alpha, "dim": spec.dim},
    }


def _builtin(name: str, blurb: str, command: str, **fields):
    """A builtin scenario at alpha=2, dim=3, as ``(name, (blurb, document))``."""
    doc = {"schema": SCHEMA_VERSION, "name": name, "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **fields}
    return name, (blurb, doc)


def _builtin_scenarios() -> list:
    unit = [0.0, 0.0, 0.0]
    complement = {"shape": "ball-complement", "center": unit, "radius": 1.0, "n": 2000}
    ball = {"shape": "ball", "center": unit, "radius": 1.0}
    identity_nodes = fibonacci_sphere(500, 1.0, (0.0, 0.0, 0.0))[[0, 100, 300]]
    return [
        _builtin("ball-newtonian", "full verification battery on the Newtonian unit-ball geometry",
                 "verify-all", n=2000),
        _builtin("sweep-origin", "sweep a unit charge at the origin onto the ball complement",
                 "sweep", region=complement, source={"points": [unit], "weights": [1.0]},
                 expected={"mass": 1.0, "tol": 0.01}),
        _builtin("sweep-identity", "sweeping a measure already on the nodes returns it",
                 "sweep", region=dict(complement, n=500),
                 source={"points": identity_nodes.tolist(), "weights": [0.2, 0.3, 0.5]},
                 expected={"identity_gap": 0.0, "tol": 1e-6}),
        _builtin("equilibrium-ball", "capacity of the unit sphere node set", "equilibrium",
                 region=dict(ball, shape="sphere", n=2000), probes={"n": 100, "seed": PROBE_SEED},
                 expected={"capacity": 1.0, "tol": 0.01}),
        _builtin("green-center", "Green kernel of the unit ball at half radius", "green-eval",
                 region=complement, x=[0.5, 0.0, 0.0], y=unit,
                 expected={"value": 1.0, "tol": 0.02}),
        _builtin("green-equilibrium-sphere", "relative capacity of the half-radius sphere",
                 "green-equilibrium", region=complement,
                 compact={"shape": "sphere", "center": unit, "radius": 0.5, "n": 800},
                 expected={"capacity": 1.0, "tol": 0.02}),
        _builtin("kelvin-exactness", "potential transformation identity under inversion",
                 "kelvin-check", center=[2.0, 0.0, 0.0], measure=_KELVIN_MEASURE,
                 samples={"n": 50, "seed": 7}, expected={"gap": 0.0, "tol": 1e-12}),
        _builtin("wiener-ball-point", "shell test at a boundary point of the solid ball", "wiener",
                 region=ball, point=[1.0, 0.0, 0.0], ratio_q=0.5, k_max=8, shell_budget=400,
                 expected={"classification": "regular"}),
        _builtin("thin-ball-at-infinity", "bounded sets are thin at infinity, via inversion",
                 "wiener", region=ball, point=[3.0, 0.0, 0.0], at_infinity=True,
                 expected={"classification": "irregular", "thin": True}),
        _builtin("mass-loss-ball", "sweeping onto a bounded set loses mass", "mass-loss",
                 region=dict(ball, n=2000), source={"points": [[2.0, 0.0, 0.0]], "weights": [1.0]},
                 expected={"strict_loss": True}),
        _builtin("mass-loss-complement", "sweeping onto a ball complement preserves mass",
                 "mass-loss", region=complement, source={"points": [unit], "weights": [1.0]},
                 expected={"strict_loss": False}),
    ]


# name -> (one-line description, scenario document)
BUILTIN_SCENARIOS = dict(_builtin_scenarios())


def _reject_constant(name: str):
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``, which
    Python accepts but JSON does not."""
    raise SchemaError(f"scenario file is not valid JSON: {name} is not a JSON number")


def _in_float_range(literal: str, parse=float):
    """``json.loads`` hook for number literals, read by ``parse``: one beyond
    the float range, such as ``1e999``, would read as infinity as a float,
    and as an int overflow where a reader converts it to a float."""
    value = parse(literal)
    try:
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise SchemaError(f"scenario number {literal} is beyond the float range")


def load_scenario(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            return json.loads(
                path.read_text(),
                parse_float=_in_float_range,
                parse_int=functools.partial(_in_float_range, parse=int),
                parse_constant=_reject_constant,
            )
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    if ref in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(BUILTIN_SCENARIOS[ref][1]))
    raise SchemaError(f"unknown scenario '{ref}' (not a file, not a builtin)")


def _load(args) -> dict:
    """Load ``args.scenario`` and apply ``--seed`` and ``--tol-override`` to
    it; returns the scenario document."""
    scen = load_scenario(args.scenario)
    table = COMMANDS[_command(scen)][1]
    if args.seed is not None:
        for key, (read, _) in table.items():
            # a section that is not an object is left for the parse to reject
            draws = isinstance(read, dict) and "seed" in read
            if draws and isinstance(scen.setdefault(key, {}), dict):
                scen[key]["seed"] = args.seed
    for item in args.tol_override or []:
        if "=" not in item:
            raise SchemaError(f"tolerance override '{item}' is not KEY=VALUE")
        key, value = item.split("=", 1)
        if key not in _TOL_OVERRIDE_KEYS:
            raise SchemaError(f"unknown tolerance override key '{key}'")
        try:
            scen[key] = float(value)
        except ValueError:
            raise SchemaError(f"tolerance override '{key}' must be a number") from None
    return scen


def _cmd_run(args) -> int:
    scen = parse_scenario(_load(args))
    payload, rows, failures = _run_scenario(scen)
    lines = [[_csv_cell(r[key]) for key in _ROW_FIELDS] for r in rows]
    _write_outputs(Path(args.out or scen.name), payload, _ROW_FIELDS, lines)
    if failures:
        print(f"property failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def _with_node_count(doc: dict, n: int) -> dict:
    """A copy of ``doc`` at node count ``n``: its top-level ``n``, or the
    ``n`` of its region, where their tables have one."""
    table = COMMANDS[_command(doc)][1]
    doc = json.loads(json.dumps(doc))
    if "n" in table:
        doc["n"] = n
    elif (
        table.get("region", (None,))[0] is _region_from_doc
        and "n" in _shape_table(doc.get("region"), "region", region=True)[2]
    ):
        doc["region"]["n"] = n
    else:
        raise SchemaError("this scenario has no node count to refine")
    return doc


def _cmd_refine(args) -> int:
    doc = _load(args)
    if not args.n:
        raise SchemaError("refine requires at least one node count via --n")
    runs = []
    lines = []
    for n in args.n:
        scen = parse_scenario(_with_node_count(doc, n))
        _, rows, _ = _run_scenario(scen)
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
    payload = _envelope("refine", scen.spec) | {"base_command": scen.command, "runs": runs}
    header = ["n", "check", "value", "expected", "rel_error"]
    _write_outputs(Path(args.out or scen.name), payload, header, lines)
    return 0


def _cmd_list(args) -> int:
    for name, (blurb, _) in sorted(BUILTIN_SCENARIOS.items()):
        print(f"{name}: {blurb}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's: 2 after a usage error, 0 after --help
        return 1 if exc.code else 0
    except (RieszLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
