import copy
import csv
import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

import rieszlab as rl
from rieszlab import KernelSpec, SchemaError, build_region, cli, core, fibonacci_sphere
from rieszlab.cli import BUILTIN_SCENARIOS, main

BALL = {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
COMPLEMENT = {
    "shape": "ball-complement",
    "center": [0.0, 0.0, 0.0],
    "radius": 1.0,
    "n": 300,
}


def write_scenario(tmp_path, doc, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def small_sweep(**extra):
    doc = {
        "schema": 1,
        "name": "small-sweep",
        "command": "sweep",
        "kernel": {"alpha": 2.0, "dim": 3},
        "region": dict(COMPLEMENT),
        "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]},
        "expected": {"mass": 1.0, "tol": 0.02},
    }
    doc.update(extra)
    return doc


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 12
    names = [l.split(":")[0] for l in lines]
    assert names == sorted(BUILTIN_SCENARIOS)
    assert "kelvin-exactness" in names


def test_run_builtin_kelvin(tmp_path, capsys):
    prefix = tmp_path / "kv"
    assert main(["run", "kelvin-exactness", "--out", str(prefix)]) == 0
    payload = json.loads((tmp_path / "kv.result.json").read_text())
    assert payload["command"] == "kelvin-check"
    csv_text = (tmp_path / "kv.table.csv").read_text()
    assert csv_text.splitlines()[0] == "name,value,expected,tol,passed"
    assert capsys.readouterr().err == ""


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "kelvin-exactness", "--out", str(a)]) == 0
    assert main(["run", "kelvin-exactness", "--out", str(b)]) == 0
    assert (tmp_path / "a.result.json").read_bytes() == (
        tmp_path / "b.result.json"
    ).read_bytes()
    assert (tmp_path / "a.table.csv").read_bytes() == (
        tmp_path / "b.table.csv"
    ).read_bytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_rerun_on_recycled_memory_is_byte_identical(tmp_path, monkeypatch, capsys, name):
    """A builtin run twice in one process writes the same bytes, and the
    same stderr and exit code.  A builtin of ASSEMBLY_PART_NODES nodes or
    more releases its last Gram and factor, and the second run writes into
    that memory, NaN-filled here.  .github/run-builtins.sh runs each builtin in a fresh process, so
    only a rerun like this one reaches that memory."""
    released = []
    monkeypatch.setattr(core, "_released_squares", released)
    doc = BUILTIN_SCENARIOS[name][1]
    n = doc.get("region", doc).get("n", 0)  # verify-all's count is top level
    a, b = tmp_path / "a", tmp_path / "b"
    code = main(["run", name, "--out", str(a)])
    err = capsys.readouterr().err
    assert [square.nbytes for square in released] == (
        [8 * n * n] * 2 if n >= core.ASSEMBLY_PART_NODES else [])
    stale = list(released)
    for square in stale:
        square[:] = np.nan
    assert main(["run", name, "--out", str(b)]) == code
    assert capsys.readouterr().err == err
    assert not any(np.isnan(square).all() for square in stale)
    for suffix in (".result.json", ".table.csv"):
        assert (tmp_path / f"b{suffix}").read_bytes() == (tmp_path / f"a{suffix}").read_bytes()


def test_green_sweep_builtin_is_near_the_closed_form_mass(tmp_path):
    """green-sweep-sphere's swept mass, 0.34 % below the closed form
    (1/|y| - 1)/(1/0.5 - 1), in one iteration.  It is pinned to 1e-12
    relative, not bit for bit: its 801-column pole batch reads
    0.320547865265873 with two BLAS threads."""
    assert main(["run", "green-sweep-sphere", "--out", str(tmp_path / "gs")]) == 0
    payload = json.loads((tmp_path / "gs.result.json").read_text())
    assert payload["swept"]["mass"] == pytest.approx(0.32054786526587303, rel=1e-12)
    assert payload["swept"]["n_atoms"] == 800
    assert payload["solver"]["iterations"] == 1
    rows = (tmp_path / "gs.table.csv").read_text().splitlines()
    assert rows[1] == "mass-in,1.0,,,"
    assert rows[2].startswith("mass-out,") and rows[2].endswith(",0.32163720091017955,0.02,true")


def test_run_file_scenario(tmp_path):
    path = write_scenario(tmp_path, small_sweep())
    assert main(["run", path, "--out", str(tmp_path / "sw")]) == 0
    payload = json.loads((tmp_path / "sw.result.json").read_text())
    assert payload["command"] == "sweep"


def test_default_prefix_is_scenario_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, small_sweep())
    assert main(["run", path]) == 0
    assert (tmp_path / "small-sweep.result.json").exists()
    assert (tmp_path / "small-sweep.table.csv").exists()


def test_property_failure_exits_2(tmp_path, capsys):
    doc = {
        "schema": 1,
        "name": "wrong-wiener",
        "command": "wiener",
        "kernel": {"alpha": 2.0, "dim": 3},
        "region": dict(BALL),
        "point": [1.0, 0.0, 0.0],
        "expected": {"classification": "irregular"},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("property failed:")
    assert "classification" in err


def test_tol_override_changes_verdict(tmp_path, capsys):
    # a 99% loss margin turns the honest 50% loss into a failed property
    args = ["run", "mass-loss-ball", "--out", str(tmp_path / "ml")]
    assert main(args + ["--tol-override", "loss_margin=0.99"]) == 2
    assert "property failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, override, message",
    [
        (None, "tol=nan", "error: tol must be finite and positive"),
        ("mass-loss-ball", "loss_margin=nan", "error: loss_margin must be finite and nonnegative"),
    ],
)
def test_tol_override_that_is_not_finite_exits_1(tmp_path, capsys, scenario, override, message):
    ref = scenario or write_scenario(tmp_path, small_sweep())
    out = tmp_path / "bad"
    assert main(["run", ref, "--tol-override", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == message
    assert list(tmp_path.glob("bad.*")) == []


def test_tol_override_that_is_not_a_number_names_the_key(tmp_path, capsys):
    ref = write_scenario(tmp_path, small_sweep())
    out = tmp_path / "bad"
    assert main(["run", ref, "--tol-override", "tol=abc", "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "error: tolerance override 'tol' must be a number"
    assert list(tmp_path.glob("bad.*")) == []


def test_tol_override_without_a_value_exits_1(tmp_path, capsys):
    ref = write_scenario(tmp_path, small_sweep())
    assert main(["run", ref, "--tol-override", "tol", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err.strip() == "error: tolerance override 'tol' is not KEY=VALUE"
    assert list(tmp_path.glob("bad.*")) == []


def test_whole_float_count_is_accepted(tmp_path):
    path = write_scenario(tmp_path, small_sweep(region=dict(COMPLEMENT, n=300.0)))
    assert main(["run", path, "--out", str(tmp_path / "w")]) == 0
    payload = json.loads((tmp_path / "w.result.json").read_text())
    assert payload["region"]["n_nodes"] == 300


def test_unknown_scenario(capsys):
    assert main(["run", "no-such-thing"]) == 1
    assert "unknown scenario 'no-such-thing'" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    path = write_scenario(tmp_path, small_sweep(bogus_key=1))
    assert main(["run", path]) == 1
    assert "unknown key 'bogus_key' in command 'sweep'" in capsys.readouterr().err


def test_schema_field_required(tmp_path, capsys):
    doc = small_sweep()
    del doc["schema"]
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 1
    assert 'requires "schema": 1' in capsys.readouterr().err


def test_invalid_kernel_reports_error(tmp_path, capsys):
    path = write_scenario(tmp_path, small_sweep(kernel={"alpha": 3.0, "dim": 3}))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha" in err


def test_unknown_tol_override_key(capsys):
    assert main(["run", "kelvin-exactness", "--tol-override", "foo=1"]) == 1
    assert "unknown tolerance override key 'foo'" in capsys.readouterr().err


def test_refine_requires_counts(capsys):
    assert main(["refine", "equilibrium-ball"]) == 1
    assert "at least one node count" in capsys.readouterr().err


PAST_FLOATS = "1" + "0" * 400
TOO_MANY = "error: a node count must be at most 9007199254740992, got 10000000000000000000"


@pytest.mark.parametrize(
    "args, message",
    [(["run", "HUGE"], TOO_MANY),
     (["refine", "equilibrium-ball", "--n", "10000000000000000000"], TOO_MANY),
     (["refine", "green-sweep-sphere", "--n", "10000000000000000000"], TOO_MANY),
     (["refine", "equilibrium-ball", "--n", PAST_FLOATS],
      "error: shape 'sphere' 'n' is beyond the float range"),
     (["run", "equilibrium-ball", "--seed", PAST_FLOATS],
      "error: probes 'seed' is beyond the float range")],
    ids=["run", "refine", "refine-compact", "refine-past-floats", "seed-past-floats"],
)
def test_a_node_count_past_numpys_array_size_exits_1(tmp_path, capsys, args, message):
    """A node count of 1e19 would size arrays past numpy's limit, and an int
    from ``--n`` or ``--seed`` past the float range converts to no float;
    each is bad input, named on one error line before numpy sees it."""
    huge = small_sweep(region=dict(COMPLEMENT, n=1e19))
    args = [write_scenario(tmp_path, huge) if a == "HUGE" else a for a in args]
    assert main(args + ["--out", str(tmp_path / "h")]) == 1
    assert capsys.readouterr().err.strip() == message
    assert list(tmp_path.glob("h.*")) == []


def test_refine_outputs_and_convergence(tmp_path):
    doc = {
        "schema": 1,
        "name": "eq-refine",
        "command": "equilibrium",
        "kernel": {"alpha": 2.0, "dim": 3},
        "region": {"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0, "n": 100},
        "expected": {"capacity": 1.0, "tol": 0.05},
    }
    path = write_scenario(tmp_path, doc)
    prefix = tmp_path / "rf"
    assert main(["refine", path, "--n", "200", "800", "--out", str(prefix)]) == 0
    payload = json.loads((tmp_path / "rf.result.json").read_text())
    assert payload["command"] == "refine"
    assert payload["kernel"] == doc["kernel"]
    assert [r["n"] for r in payload["runs"]] == [200, 800]
    errs = [r["max_rel_error"] for r in payload["runs"]]
    assert errs[1] < errs[0]
    lines = (tmp_path / "rf.table.csv").read_text().splitlines()
    assert lines[0] == "n,check,value,expected,rel_error"
    assert len(lines) >= 3


def test_no_temp_files_left_behind(tmp_path):
    assert main(["run", "kelvin-exactness", "--out", str(tmp_path / "t")]) == 0
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


def test_seed_override_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, small_sweep())
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", path, "--seed", "5", "--out", str(a)]) == 0
    assert main(["run", path, "--seed", "5", "--out", str(b)]) == 0
    assert (tmp_path / "s1.result.json").read_bytes() == (
        tmp_path / "s2.result.json"
    ).read_bytes()


def test_seed_override_applies_to_every_command(tmp_path, capsys):
    assert main(["run", "kelvin-exactness", "--seed", "5", "--out", str(tmp_path / "k")]) == 0
    doc = {
        "schema": 1,
        "name": "small-green",
        "command": "green-eval",
        "kernel": {"alpha": 2.0, "dim": 3},
        "region": dict(COMPLEMENT),
        "x": [0.5, 0.0, 0.0],
        "y": [0.0, 0.0, 0.0],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", path, "--seed", "5", "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""


def test_probe_sampling_failure_exits_1(tmp_path, capsys):
    path = write_scenario(tmp_path, small_sweep(region=dict(COMPLEMENT, n=150)))
    assert main(["run", path, "--out", str(tmp_path / "p")]) == 1
    assert "error: probe sampling failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, message",
    [
        ({"kernel": 5}, "error: kernel must be a JSON object"),
        ({"probes": 5}, "error: probes must be a JSON object"),
        ({"expected": [1]}, "error: expected must be a JSON object"),
        (
            {"region": {"shape": "union", "parts": 5, "n": 300}},
            "error: shape 'union' 'parts' must be a JSON list",
        ),
        (
            {"source": {"points": 5, "weights": [1.0]}},
            "error: measure 'points' must be a list of lists of 3 numbers",
        ),
        (
            {"source": {"points": None, "weights": [1.0]}},
            "error: measure 'points' must be a list of lists of 3 numbers",
        ),
        (
            {"source": {"points": {"a": 1}, "weights": [1.0]}},
            "error: measure 'points' must be a list of lists of 3 numbers",
        ),
        (
            {"source": {"points": [[0.0, 0.0, 0.0]], "weights": 1.0}},
            "error: measure 'weights' must be a list of numbers",
        ),
        (
            {"source": {"points": [], "weights": [1.0, 2.0]}},
            "error: measure 'weights' must have one entry per point",
        ),
        ({"kernel": {"alpha": [2], "dim": 3}}, "error: kernel 'alpha' must be a number"),
        (
            {"region": dict(COMPLEMENT, radius=[1])},
            "error: shape 'ball-complement' 'radius' must be a number",
        ),
        (
            {"region": dict(COMPLEMENT, n=[200])},
            "error: shape 'ball-complement' 'n' must be a number",
        ),
        ({"tol": {}}, "error: tol must be a number"),
        ({"probes": {"n": [3]}}, "error: probes 'n' must be a number"),
        ({"tol": float("nan")}, "error: scenario file is not valid JSON: NaN is not a JSON number"),
        ({"tol": -1.0}, "error: tol must be finite and positive"),
        ({"tol": 0.0}, "error: tol must be finite and positive"),
        (
            {"tol_dom": float("nan")},
            "error: scenario file is not valid JSON: NaN is not a JSON number",
        ),
        ({"tol_dom": -0.5}, "error: tol_dom must be finite and nonnegative"),
        ({"kernel": {"alpha": "2", "dim": 3}}, "error: kernel 'alpha' must be a number"),
        ({"kernel": {"alpha": 2.0, "dim": True}}, "error: kernel 'dim' must be a number"),
        (
            {"region": dict(COMPLEMENT, radius="1.0")},
            "error: shape 'ball-complement' 'radius' must be a number",
        ),
        (
            {"region": dict(COMPLEMENT, n=200.7)},
            "error: shape 'ball-complement' 'n' must be a whole number",
        ),
        ({"tol": True}, "error: tol must be a number"),
        ({"probes": {"n": "3"}}, "error: probes 'n' must be a number"),
        ({"probes": {"seed": 1.5}}, "error: probes 'seed' must be a whole number"),
        (
            {"source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0], "signed": "false"}},
            "error: measure 'signed' must be a JSON boolean",
        ),
        (
            {"source": {"points": [["2.0", False, 0]], "weights": [True]}},
            "error: measure 'points' must be a list of lists of 3 numbers",
        ),
        (
            {"source": {"points": [[2.0, 0, 0]], "weights": [True]}},
            "error: measure 'weights' must be a list of numbers",
        ),
        (
            {"region": {"shape": "cloud", "points": [[True, 0, 0], [0, "1", 0], [0, 0, 1]]}},
            "error: shape 'cloud' 'points' must be a list of lists of 3 numbers",
        ),
        ({"expected": {"mass": "0.5"}}, "error: expected 'mass' must be a number"),
        ({"expected": {"mass": 1.0, "tol": "0.01"}}, "error: expected 'tol' must be a number"),
        ({"expected": {"mass": 1.0, "tol": True}}, "error: expected 'tol' must be a number"),
        ({"expected": {"mass": None}}, "error: expected 'mass' must be a number"),
        ({"name": 5}, "error: name must be a string"),
        ({"probes": {"n": -3}}, "error: probes 'n' must not be negative"),
        ({"probes": {"seed": -1}}, "error: probes 'seed' must not be negative"),
        (
            {"source": {"points": [[0, 0], [0, 0, 0.1]], "weights": [1.0, 1.0]}},
            "error: measure 'points' must be a list of lists of 3 numbers",
        ),
        ({"source": [[0.0, 0.0, 0.0]]}, "error: measure must be a JSON object"),
        (
            {"source": {"points": [[0.0, 0.0, 0.0]]}},
            "error: missing key 'weights' in measure",
        ),
        ({"command": "bogus"}, "error: unknown command 'bogus'"),
        ({"region": dict(COMPLEMENT, n=1)}, "error: a generated region needs n >= 2 nodes, got 1"),
        (
            {"region": {"shape": "cube", "n": 300}},
            "error: region must be an object whose 'shape' is one of "
            "['ball', 'ball-complement', 'cloud', 'half-space', 'sphere', 'union']",
        ),
    ],
    ids=["kernel", "probes", "expected", "union-parts", "points-number", "points-null",
         "points-object", "weights-number", "empty-points-with-weights", "alpha-list",
         "radius-list", "n-list", "tol-object", "probes-n-list", "tol-nan", "tol-negative",
         "tol-zero", "tol_dom-nan", "tol_dom-negative", "alpha-string", "dim-bool",
         "radius-string", "n-fraction", "tol-bool", "probes-n-string", "seed-fraction",
         "signed-string", "points-entries", "weights-bool", "cloud-entries",
         "expected-mass-string", "expected-tol-string", "expected-tol-bool",
         "expected-mass-null", "name-number", "probes-n-negative", "seed-negative",
         "points-ragged", "measure-list", "measure-no-weights", "unknown-command",
         "n-one", "unknown-shape"],
)
def test_non_object_section_exits_1(tmp_path, capsys, section, message):
    path = write_scenario(tmp_path, small_sweep(**section))
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[1]", "error: scenario must be a JSON object"),
        (
            b"{",
            "error: scenario file is not valid JSON: Expecting property name enclosed "
            "in double quotes: line 1 column 2 (char 1)",
        ),
        # JSON text is UTF-8
        (
            b"\xff{}",
            "error: scenario file is not valid JSON: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte",
        ),
    ],
    ids=["list", "truncated", "not-utf8"],
)
def test_scenario_file_that_is_not_a_json_object_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "scen.json"
    path.write_bytes(text)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == message
    assert list(tmp_path.glob("x.*")) == []


def test_an_array_past_the_machines_memory_exits_1(tmp_path, monkeypatch, capsys):
    """A shell budget the schema accepts can ask for more memory than the
    machine has: numpy's MemoryError is one error: line and exit 1, not a
    traceback.  The runner is patched, so nothing is allocated."""
    message = ("Unable to allocate 768. PiB for an array with shape (36028797018963968, 3) "
               "and data type float64")

    def too_big(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "wiener_report", too_big)
    doc = {"schema": 1, "name": "w", "command": "wiener",
           "kernel": {"alpha": 2.0, "dim": 3}, "region": BALL,
           "point": [1.0, 0.0, 0.0], "shell_budget": 2**53}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("w.*")) == []


def test_a_bare_value_error_inside_main_propagates(tmp_path, monkeypatch, capsys):
    """Only a RieszLabError, an OSError or a MemoryError is a user error: a
    bare ValueError from a library call is a fault of the program, and main
    lets it raise."""
    def fault(gk, x, y):
        raise ValueError("zero-size array to reduction operation maximum which has no identity")

    monkeypatch.setattr(cli, "green_eval", fault)
    with pytest.raises(ValueError, match="zero-size array"):
        main(["run", "green-center", "--out", str(tmp_path / "g")])
    assert capsys.readouterr().err == ""
    assert list(tmp_path.glob("g.*")) == []


def test_analytic_shape_outside_three_dimensions_exits_1(tmp_path, capsys):
    """Analytic shapes lay out nodes in R^3 only: a 4-d sphere is bad input,
    reported on one error line, not a traceback."""
    sphere = {"shape": "sphere", "center": [0, 0, 0, 0], "radius": 1.0, "n": 100}
    doc = {"schema": 1, "name": "s4", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 4}, "region": sphere}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "s4")]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: node generation for analytic shapes is implemented for dim=3; "
        "use an explicit point cloud for other dimensions"
    )


@pytest.mark.parametrize("command", ["sweep", "mass-loss", "kelvin-check"])
def test_measure_points_must_have_the_kernel_dimension(tmp_path, capsys, command):
    """A measure whose points have two coordinates at dim 3 is bad input,
    named on one error line before any array is built from it."""
    fields = copy.deepcopy(_PAYLOAD_LAYOUTS[command][0])
    key = "measure" if command == "kelvin-check" else "source"
    fields[key] = {"points": [[0.1, 0.0]], "weights": [1.0]}
    doc = {"schema": 1, "name": command, "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **fields}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: measure 'points' must be a list of lists of 3 numbers"
    )


def test_empty_measure_takes_the_kernel_dimension():
    empty = {"points": [], "weights": []}
    assert cli._measure(empty, "source", KernelSpec(2.0, 4)).dim == 4
    assert cli._measure(empty, "source", KernelSpec(2.0, 3)).dim == 3


SPEC3 = KernelSpec(2.0, 3)


def test_measure_reader_rejects_unknown_key():
    doc = {"points": [[1.0, 0.0, 0.0]], "weights": [1.0], "bogus": 1}
    with pytest.raises(SchemaError, match="unknown key 'bogus' in measure"):
        cli._measure(doc, "source", SPEC3)


@pytest.mark.parametrize("signed", ["false", "true", 0, 1, None])
def test_measure_reader_signed_must_be_a_boolean(signed):
    # bool("false") is True: a string would silently make the measure signed.
    doc = {"points": [[0.0, 0.0, 0.0]], "weights": [1.0], "signed": signed}
    with pytest.raises(SchemaError, match="measure 'signed' must be a JSON boolean"):
        cli._measure(doc, "source", SPEC3)
    assert not cli._measure(dict(doc, signed=False), "source", SPEC3).signed


@pytest.mark.parametrize(
    "points, weights, key",
    [
        ([["2.0", 0.0, 0.0]], [1.0], "points"),
        ([[2.0, False, 0.0]], [1.0], "points"),
        ([[2.0, None, 0.0]], [1.0], "points"),
        ([2.0], [1.0], "points"),
        ([[2.0, 0.0, 0.0]], [True], "weights"),
        ([[2.0, 0.0, 0.0]], ["1"], "weights"),
    ],
    ids=["point-string", "point-bool", "point-null", "flat-points", "weight-bool",
         "weight-string"],
)
def test_measure_reader_entries_must_be_numbers(points, weights, key):
    doc = {"points": points, "weights": weights}
    with pytest.raises(SchemaError, match=f"measure '{key}' must be a list of"):
        cli._measure(doc, "source", SPEC3)


def test_shape_extent_is_unknown_key(tmp_path, capsys):
    path = write_scenario(tmp_path, small_sweep(region=dict(COMPLEMENT, extent=40.0)))
    assert main(["run", path, "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.strip() == "error: unknown key 'extent' in shape 'ball-complement'"


def test_repeated_cloud_point_exits_1(tmp_path, capsys):
    cloud = {"shape": "cloud", "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]]}
    doc = {"schema": 1, "name": "d", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3}, "region": cloud}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: two nodes closer than h_min=1.41421e-09 (min spacing 0)"
    assert list(tmp_path.glob("d.*")) == []


def test_unconverged_sweep_exits_1(tmp_path, capsys, monkeypatch):
    """A sweep whose solve pivots exits 0; with no pivoting iteration
    allowed, the solver's SolverFailure exits 1 with its message."""
    from rieszlab import HalfSpace, solver

    nodes = HalfSpace([0.0, 0.0, 1.0], 0.0).shell_nodes(np.zeros(3), 0.5, 1.0, 400)
    doc = small_sweep(
        region={"shape": "cloud", "points": nodes.tolist()},
        source={"points": [[0.0, 0.0, -2.0]], "weights": [1.0]},
        expected={"mass": 0.289, "tol": 0.01},
    )
    path = write_scenario(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(solver, "MAX_ITER_PER_NODE", 0)
    assert main(["run", path, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: nonnegative QP did not converge: kkt residual \S+ "
                        r"after 0 iterations \(block-pivot\)\n", err)
    assert list(tmp_path.glob("d.*")) == []


def test_repeated_source_point_exits_1(tmp_path, capsys):
    source = {"points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]], "weights": [1.0] * 3}
    path = write_scenario(tmp_path, small_sweep(source=source))
    assert main(["run", path, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: two nodes closer than h_min=1e-10 (min spacing 0)"
    assert list(tmp_path.glob("d.*")) == []


@pytest.mark.parametrize("shape", ["ball", "sphere"])
@pytest.mark.parametrize("field", ["shell_budget", "k_max"])
def test_empty_shell_scan_exits_1(tmp_path, capsys, shape, field):
    doc = {"schema": 1, "name": "w", "command": "wiener",
           "kernel": {"alpha": 2.0, "dim": 3}, "region": dict(BALL, shape=shape),
           "point": [1.0, 0.0, 0.0], field: 0}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {field} must be at least 1"


def test_refine_wiener_has_no_node_count(tmp_path, capsys):
    # wiener lays out its own shells, so a node count would be ignored
    out = str(tmp_path / "w")
    assert main(["refine", "wiener-ball-point", "--n", "100", "5000", "--out", out]) == 1
    assert "no node count to refine" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_kelvin_check_rejects_tol_override(tmp_path, capsys):
    out = str(tmp_path / "k")
    args = ["run", "kelvin-exactness", "--tol-override", "tol=1e-3", "--out", out]
    assert main(args) == 1
    assert "unknown key 'tol' in command 'kelvin-check'" in capsys.readouterr().err


_ENVELOPE = {"schema", "command", "kernel"}
# command -> (scenario fields, exact top-level keys of result.json, exit code)
_PAYLOAD_LAYOUTS = {
    "sweep": (
        {"region": COMPLEMENT, "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]}},
        {"region", "checks", "swept", "solver"},
        0,
    ),
    "equilibrium": (
        {"region": dict(COMPLEMENT, shape="sphere"), "probes": {"n": 20, "seed": 3}},
        {"region", "capacity", "min_energy", "node_potential", "probe_potential_max",
         "probe_seed"},
        0,
    ),
    "green-eval": (
        {"region": COMPLEMENT, "x": [0.5, 0.0, 0.0], "y": [0.0, 0.0, 0.0]},
        {"region", "x", "y", "value"},
        0,
    ),
    "green-equilibrium": (
        {"region": COMPLEMENT,
         "compact": {"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.5, "n": 60}},
        {"region", "compact", "capacity", "min_energy", "node_potential"},
        0,
    ),
    "green-sweep": (
        {"region": COMPLEMENT,
         "compact": {"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.5, "n": 60},
         "source": {"points": [[0.75, 0.1, 0.0]], "weights": [1.0]}},
        {"region", "compact", "swept", "solver"},
        0,
    ),
    "kelvin-check": (
        {"center": [2.0, 0.0, 0.0],
         "measure": {"points": [[0.1, 0.2, 0.3]], "weights": [1.0]},
         "samples": {"n": 10, "seed": 3}},
        {"center", "n_samples", "covariance_gap"},
        0,
    ),
    "wiener": (
        {"region": BALL, "point": [1.0, 0.0, 0.0], "k_max": 4, "shell_budget": 300},
        {"point", "ratio_q", "k_max", "classification", "fitted_ratio", "degenerate",
         "at_infinity", "thin", "shells"},
        0,
    ),
    "mass-loss": (
        {"region": dict(BALL, n=300), "source": {"points": [[2.0, 0.0, 0.0]], "weights": [1.0]}},
        {"region", "mass_in", "mass_out", "loss_fraction", "strict_loss", "vacuous"},
        0,
    ),
    # the battery's 1% checks do not hold at n=300; the outputs are still written
    "verify-all": ({"n": 300}, {"n", "checks", "all_passed"}, 2),
}


@pytest.mark.parametrize("command", sorted(_PAYLOAD_LAYOUTS))
def test_payload_layout(tmp_path, command):
    fields, keys, code = _PAYLOAD_LAYOUTS[command]
    doc = {"schema": 1, "name": command, "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **fields}
    prefix = tmp_path / "p"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(prefix)]) == code
    payload = json.loads((tmp_path / "p.result.json").read_text())
    assert set(payload) == _ENVELOPE | keys
    assert payload["command"] == command
    assert payload["kernel"] == {"alpha": 2.0, "dim": 3}
    # The envelope writes each parsed region as its shape document and node
    # count (wiener's region is a shape, with no nodes), and each point as given.
    parsed = cli.parse_scenario(doc).fields
    for key in ("region", "compact"):
        if key in keys:
            shape_doc = {k: v for k, v in fields[key].items() if k != "n"}
            assert payload[key] == shape_doc | {"n_nodes": parsed[key].n_nodes}
    for key in ("x", "y", "point", "center"):
        if key in fields:
            assert payload[key] == fields[key]
    if command == "sweep":
        assert set(payload["checks"]) == {
            "mass_in", "mass_out", "mass_ok", "energy_in", "energy_out", "energy_ok",
            "node_equality_gap", "domination_excess", "domination_ok", "n_probes",
            "probe_seed",
        }
    if command == "wiener":
        assert payload["shells"]
        for shell in payload["shells"]:
            assert set(shell) == {"k", "r_lo", "r_hi", "n_nodes", "capacity", "term"}
    if command == "verify-all":
        for row in payload["checks"]:
            assert set(row) == {"name", "value", "expected", "tol", "passed"}
    header = (tmp_path / "p.table.csv").read_text().splitlines()[0]
    assert header == "name,value,expected,tol,passed"


def test_dumps_deterministic_writes_plain_numbers_and_names_non_finite_ones():
    """A list of plain finite numbers is written as it is; every other value,
    a non-finite float, a bool or a numpy type among them, is converted."""
    doc = {
        "floats": [0.5, -1.25, 1e300],
        "ints": [3, 0, -7],
        "empty": [],
        "nonfinite": [1.0, float("nan"), float("inf"), -float("inf")],
        "bools": [True, False],
        "mixed": [1, 2.5],
        "tuple": (1.0, 2),
        "array": np.array([[0.5, np.nan], [2.0, 3.0]]),
        "int_array": np.arange(3),
        "bool_array": np.array([True, False]),
        "scalars": {"f": np.float64(0.1), "i": np.int64(4), "b": np.bool_(True), "inf": np.inf,
                    5: None},
        "rows": [{"name": "a", "value": [0.25]}],
    }
    assert cli.dumps_deterministic(doc) == (
        '{"array":[[0.5,"nan"],[2.0,3.0]],"bool_array":[true,false],"bools":[true,false],'
        '"empty":[],"floats":[0.5,-1.25,1e+300],"int_array":[0,1,2],"ints":[3,0,-7],'
        '"mixed":[1,2.5],"nonfinite":[1.0,"nan","inf","-inf"],'
        '"rows":[{"name":"a","value":[0.25]}],'
        '"scalars":{"5":null,"b":true,"f":0.1,"i":4,"inf":"inf"},"tuple":[1.0,2]}'
    )


def test_identity_gap_uses_expected_value(tmp_path):
    doc = copy.deepcopy(BUILTIN_SCENARIOS["sweep-identity"][1])
    doc["expected"] = {"identity_gap": 0.5, "tol": 1e-6}
    path = write_scenario(tmp_path, doc)
    # the gap is ~0, so a check against 0.5 fails
    assert main(["run", path, "--out", str(tmp_path / "i")]) == 2
    with (tmp_path / "i.table.csv").open() as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    assert rows["identity-gap"]["expected"] == "0.5"
    assert rows["identity-gap"]["passed"] == "false"


@pytest.mark.parametrize(
    "command, fields, where",
    [
        ("green-eval", {"region": COMPLEMENT, "x": 0.5, "y": [0.0, 0.0, 0.0]}, "x"),
        ("green-eval", {"region": COMPLEMENT, "x": [0.5, 0.0, 0.0], "y": 0}, "y"),
        ("kelvin-check",
         {"center": 2.0, "measure": {"points": [[0.1, 0.2, 0.3]], "weights": [1.0]}},
         "center"),
        ("wiener", {"region": BALL, "point": 1.0}, "point"),
        ("sweep", {"region": dict(COMPLEMENT, center=0.0),
                   "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]}},
         "shape 'ball-complement' 'center'"),
        ("wiener", {"region": {"shape": "half-space", "normal": 1.0, "offset": 0.0},
                    "point": [0.0, 0.0, 0.0]},
         "shape 'half-space' 'normal'"),
        ("kelvin-check",
         {"center": ["0", True, 0], "measure": {"points": [[0.1, 0.2, 0.3]], "weights": [1.0]}},
         "center"),
        ("green-eval", {"region": COMPLEMENT, "x": [0.5, True, 0.0], "y": [0.0, 0.0, 0.0]}, "x"),
        ("sweep", {"region": dict(COMPLEMENT, center=["0", 0.0, 0.0]),
                   "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]}},
         "shape 'ball-complement' 'center'"),
    ],
    ids=["green-eval-x", "green-eval-y", "kelvin-center", "wiener-point", "shape-center",
         "shape-normal", "kelvin-center-entries", "green-eval-x-bool", "shape-center-string"],
)
def test_scalar_point_field_exits_1(tmp_path, capsys, command, fields, where):
    doc = {"schema": 1, "name": "p", "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **fields}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {where} must be a list of 3 numbers"


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("wiener", {"at_infinity": "false"}, "error: at_infinity must be a JSON boolean"),
        ("wiener", {"expected": {"classification": 5}},
         "error: expected 'classification' must be a string"),
        ("wiener", {"expected": {"thin": "true"}}, "error: expected 'thin' must be a JSON boolean"),
        ("mass-loss", {"region": dict(BALL, n=300), "expected": {"strict_loss": "false"}},
         "error: expected 'strict_loss' must be a JSON boolean"),
        ("kelvin-check", {"samples": {"n": -3}}, "error: samples 'n' must not be negative"),
        ("kelvin-check", {"measure": {"points": [[0.1, True, 0.3]], "weights": [1.0]}},
         "error: measure 'points' must be a list of lists of 3 numbers"),
        ("verify-all", {"n": -300}, "error: n must not be negative"),
        # Python's json module reads NaN, Infinity and -Infinity; JSON has no such numbers.
        ("green-eval", {"x": [float("nan"), 0, 0]},
         "error: scenario file is not valid JSON: NaN is not a JSON number"),
        ("wiener", {"point": [float("inf"), 0, 0]},
         "error: scenario file is not valid JSON: Infinity is not a JSON number"),
        ("wiener", {"point": [-float("inf"), 0, 0]},
         "error: scenario file is not valid JSON: -Infinity is not a JSON number"),
        ("kelvin-check", {"expected": {"gap": float("nan")}},
         "error: scenario file is not valid JSON: NaN is not a JSON number"),
        # Literals beyond the float range, which json.dumps cannot write: the
        # string "raw:<literal>" is written as the bare literal.
        ("wiener", {"point": ["raw:1e999", 0, 0]},
         "error: scenario number 1e999 is beyond the float range"),
        ("wiener", {"point": ["raw:-1e999", 0, 0]},
         "error: scenario number -1e999 is beyond the float range"),
        ("wiener", {"region": dict(BALL, radius="raw:1e999")},
         "error: scenario number 1e999 is beyond the float range"),
        ("wiener", {"point": ["raw:" + "9" * 400, 0, 0]},
         f"error: scenario number {'9' * 400} is beyond the float range"),
        ("wiener", {"k_max": "raw:" + "9" * 400},
         f"error: scenario number {'9' * 400} is beyond the float range"),
        # A shell too thin for the Halton template to fill fails fast.
        ("wiener", {"ratio_q": 0.9999999999999},
         "error: a shell of radius ratio 1.0 is too thin to lay out 300 nodes from 1000 batches "
         "of candidates; widen it (a smaller ratio_q)"),
        ("wiener", {"ratio_q": 0.99999, "shell_budget": 100_000},
         "error: a shell of radius ratio 0.99999 is too thin to lay out 100000 nodes from 1000 "
         "batches of candidates; widen it (a smaller ratio_q)"),
    ],
    ids=["at_infinity-string", "classification-number", "thin-string", "strict_loss-string",
         "samples-n-negative", "measure-entries", "verify-all-n-negative", "x-nan",
         "point-infinity", "point-minus-infinity", "expected-gap-nan", "point-1e999",
         "point-minus-1e999", "radius-1e999", "point-400-digits", "k_max-400-digits",
         "ratio_q-thin-shell", "ratio_q-thin-shell-large-budget"],
)
def test_bad_field_of_command_exits_1(tmp_path, capsys, command, fields, message):
    doc = {"schema": 1, "name": command, "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **_PAYLOAD_LAYOUTS[command][0], **fields}
    path = tmp_path / "scen.json"
    path.write_text(re.sub(r'"raw:([^"]*)"', r"\1", json.dumps(doc)))
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == message
    assert list(tmp_path.glob("x.*")) == []


@pytest.mark.parametrize("thin, code", [(True, 0), (False, 2)])
def test_wiener_at_infinity_checks_thin(tmp_path, capsys, thin, code):
    doc = copy.deepcopy(BUILTIN_SCENARIOS["thin-ball-at-infinity"][1])
    doc["expected"]["thin"] = thin
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "t")]) == code
    payload = json.loads((tmp_path / "t.result.json").read_text())
    assert payload["at_infinity"] is True and payload["thin"] is True
    assert capsys.readouterr().err.strip() == ("" if thin else "property failed: thin-at-infinity")


def test_refine_verify_all_sets_the_battery_size(tmp_path):
    # the battery's checks need not pass at these sizes; refine reports them
    out = tmp_path / "v"
    assert main(["refine", "ball-newtonian", "--n", "300", "400", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "v.result.json").read_text())
    assert payload["base_command"] == "verify-all"
    assert [r["n"] for r in payload["runs"]] == [300, 400]
    assert payload["runs"][0]["checks"] != payload["runs"][1]["checks"]


def test_refine_green_equilibrium_scales_the_compact_with_the_region(tmp_path, monkeypatch):
    built = []

    def spy(shape, n, spec):
        built.append((shape.kind, n))
        return build_region(shape, n, spec)

    monkeypatch.setattr(cli, "build_region", spy)
    doc = {"schema": 1, "name": "ge", "command": "green-equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3}, **_PAYLOAD_LAYOUTS["green-equilibrium"][0]}
    args = ["refine", write_scenario(tmp_path, doc), "--n", "200", "250"]
    assert main(args + ["--out", str(tmp_path / "r")]) == 0
    # the scenario's 300 region and 60 compact nodes keep their ratio
    assert built == [("ball-complement", 200), ("sphere", 40),
                     ("ball-complement", 250), ("sphere", 50)]
    payload = json.loads((tmp_path / "r.result.json").read_text())
    assert [(r["n"], r["compact_n"]) for r in payload["runs"]] == [(200, 40), (250, 50)]


def test_refine_green_sweep_converges_with_the_compact(tmp_path):
    """The builtin's compact of 800 nodes over a region of 2000 refines to
    200 and 400 nodes at 500 and 1000, and the swept mass approaches its
    closed form as both grow."""
    out = tmp_path / "g"
    assert main(["refine", "green-sweep-sphere", "--n", "500", "1000", "2000",
                 "--out", str(out)]) == 0
    runs = json.loads((tmp_path / "g.result.json").read_text())["runs"]
    assert [r["compact_n"] for r in runs] == [200, 400, 800]
    errors = [r["max_rel_error"] for r in runs]
    assert errors == sorted(errors, reverse=True) and errors[-1] < 0.005


@pytest.mark.parametrize(
    "compact, counts",
    [
        ({"shape": "cloud", "points": fibonacci_sphere(30, 0.5, [0.0, 0.0, 0.0]).tolist()},
         [30, 30]),
        ({"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.5, "n": 3}, [2, 2]),
    ],
    ids=["cloud", "two-nodes"],
)
def test_refine_keeps_a_cloud_compact_and_at_least_two_nodes(tmp_path, compact, counts):
    doc = {"schema": 1, "name": "ge", "command": "green-equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3}, "region": COMPLEMENT, "compact": compact}
    args = ["refine", write_scenario(tmp_path, doc), "--n", "100", "200"]
    assert main(args + ["--out", str(tmp_path / "c")]) == 0
    runs = json.loads((tmp_path / "c.result.json").read_text())["runs"]
    assert [r["compact_n"] for r in runs] == counts


UNION = {"shape": "union", "n": 200, "parts": [
    BALL, {"shape": "ball", "center": [3.0, 0.0, 0.0], "radius": 0.5}]}


@pytest.mark.parametrize(
    "command, region, where",
    [
        ("equilibrium", {"shape": "cloud", "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "n": 3},
         "shape 'cloud'"),
        ("equilibrium", dict(UNION, parts=[dict(BALL, n=100), UNION["parts"][1]]), "shape 'ball'"),
        ("wiener", dict(BALL, n=300), "shape 'ball'"),
    ],
    ids=["cloud", "union-part", "wiener"],
)
def test_only_an_analytic_region_takes_a_node_count(tmp_path, capsys, command, region, where):
    """A cloud's nodes are its points, a union part shares the union's
    count, and wiener lays out its own shells: an 'n' on any of them is an
    unknown key, not a count that is silently ignored."""
    doc = {"schema": 1, "name": command, "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **_PAYLOAD_LAYOUTS[command][0], "region": region}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == f"error: unknown key 'n' in {where}"


def test_a_union_with_a_cloud_part_has_the_union_n(tmp_path):
    """A cloud part counts its own points within the union's n."""
    cloud = {"shape": "cloud", "points": fibonacci_sphere(60, 0.5, [3.0, 0.0, 0.0]).tolist()}
    doc = {"schema": 1, "name": "u", "command": "equilibrium", "kernel": {"alpha": 2.0, "dim": 3},
           "region": {"shape": "union", "n": 300, "parts": [BALL, cloud]}}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "u")]) == 0
    payload = json.loads((tmp_path / "u.result.json").read_text())
    assert payload["region"]["n_nodes"] == 300


def test_refine_sets_the_node_count_of_a_union(tmp_path, monkeypatch):
    built = []

    def spy(shape, n, spec):
        built.append((shape.kind, n))
        return build_region(shape, n, spec)

    monkeypatch.setattr(cli, "build_region", spy)
    doc = {"schema": 1, "name": "u", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3}, "region": UNION}
    args = ["refine", write_scenario(tmp_path, doc), "--n", "150", "250"]
    assert main(args + ["--out", str(tmp_path / "u")]) == 0
    assert built == [("union", 150), ("union", 250)]


def test_seed_override_reaches_samples_and_probes(tmp_path, monkeypatch):
    seeds = []
    covariance_samples = cli._covariance_samples

    def spy(center, n, seed):
        seeds.append(seed)
        return covariance_samples(center, n, seed)

    monkeypatch.setattr(cli, "_covariance_samples", spy)
    # the builtin gives its samples seed 7; --seed replaces it
    assert main(["run", "kelvin-exactness", "--seed", "5", "--out", str(tmp_path / "k")]) == 0
    assert seeds == [5]
    doc = {"schema": 1, "name": "eq", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3},
           "region": dict(COMPLEMENT, shape="sphere"), "probes": {"n": 20, "seed": 3}}
    args = ["run", write_scenario(tmp_path, doc), "--seed", "6", "--out", str(tmp_path / "e")]
    assert main(args) == 0
    assert json.loads((tmp_path / "e.result.json").read_text())["probe_seed"] == 6


_SPHERE = {"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0, "n": 200}
_SHELLS = {("ratio_q",): "ratio_q", ("k_max",): "k_max", ("shell_budget",): "shell_budget"}
_SIGNED = (rl.DiscreteMeasure, "signed")

# case -> (a scenario that leaves out every optional field the CLI passes to
# a library parameter, {field path: (library callable, parameter)})
LIBRARY_FIELDS = {
    "sweep": ({"command": "sweep", "region": COMPLEMENT,
               "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]}},
              {("tol",): (rl.sweep, "tol"), ("tol_dom",): (rl.sweep, "tol_dom"),
               ("probes", "n"): (rl.sweep, "n_probes"),
               ("probes", "seed"): (rl.sweep, "probe_seed"), ("source", "signed"): _SIGNED}),
    "equilibrium": ({"command": "equilibrium", "region": _SPHERE},
                    {("tol",): (rl.riesz_equilibrium, "tol"),
                     ("probes", "n"): (rl.riesz_equilibrium, "n_probes"),
                     ("probes", "seed"): (rl.riesz_equilibrium, "probe_seed")}),
    "green-eval": ({"command": "green-eval", "region": COMPLEMENT,
                    "x": [0.5, 0.0, 0.0], "y": [0.0, 0.0, 0.0]},
                   {("tol",): (rl.GreenKernel, "tol")}),
    "green-equilibrium": ({"command": "green-equilibrium", "region": COMPLEMENT,
                           "compact": dict(_SPHERE, radius=0.5, n=100)},
                          {("tol",): (rl.GreenKernel, "tol")}),
    "green-sweep": ({"command": "green-sweep", "region": COMPLEMENT,
                     "compact": dict(_SPHERE, radius=0.5, n=100),
                     "source": {"points": [[0.75, 0.1, 0.0]], "weights": [1.0]}},
                    {("tol",): (rl.GreenKernel, "tol"), ("source", "signed"): _SIGNED}),
    "kelvin-check": ({"command": "kelvin-check", "center": [2.0, 0.0, 0.0],
                      "measure": {"points": [[0.3, 0.1, -0.2]], "weights": [0.5]}},
                     {("measure", "signed"): _SIGNED}),
    "wiener": ({"command": "wiener", "region": BALL, "point": [1.0, 0.0, 0.0]},
               {path: (rl.wiener_report, key) for path, key in _SHELLS.items()}),
    "wiener-at-infinity": ({"command": "wiener", "region": BALL, "point": [3.0, 0.0, 0.0],
                            "at_infinity": True},
                           {path: (rl.thin_at_infinity_report, key)
                            for path, key in _SHELLS.items()}),
    "mass-loss": ({"command": "mass-loss", "region": dict(BALL, n=300),
                   "source": {"points": [[2.0, 0.0, 0.0]], "weights": [1.0]}},
                  {("loss_margin",): (rl.mass_loss_test, "loss_margin"),
                   ("tol",): (rl.mass_loss_test, "tol"), ("source", "signed"): _SIGNED}),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_FIELDS))
def test_a_field_left_out_takes_the_library_default(tmp_path, case):
    """A scenario that leaves out every field the CLI passes to a library
    parameter parses to none of them, and writes the same result.json as the
    scenario that spells each one out at the default the library's
    signature declares.  verify-all passes no such field."""
    commands = {doc["command"] for doc, _ in LIBRARY_FIELDS.values()}
    assert commands | {"verify-all"} == set(cli.COMMANDS)
    doc, fields = LIBRARY_FIELDS[case]
    doc = dict(doc, schema=1, name="defaults")
    parsed = cli.parse_scenario(doc).fields
    assert not {path[0] for path in fields if len(path) == 1} & set(parsed)
    assert parsed.get("probes", {}) == {}
    spelled = copy.deepcopy(doc)
    for path, (fn, name) in fields.items():
        default = inspect.signature(fn).parameters[name].default
        assert default is not inspect.Parameter.empty
        *sections, key = path
        target = spelled
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = default
    outputs = []
    for label, scenario in (("left-out", doc), ("spelled-out", spelled)):
        prefix = tmp_path / label
        assert main(["run", write_scenario(tmp_path, scenario, f"{label}.json"),
                     "--out", str(prefix)]) == 0
        outputs.append((tmp_path / f"{label}.result.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_parser_is_shared_but_each_call_gets_its_own_options(tmp_path, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    load = cli._load

    def spy(args):
        seen.append((args.seed, args.tol_override, getattr(args, "n", None)))
        return load(args)

    monkeypatch.setattr(cli, "_load", spy)
    doc = {"schema": 1, "name": "eq", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3},
           "region": dict(COMPLEMENT, shape="sphere", n=100), "probes": {"n": 10, "seed": 3}}
    path = write_scenario(tmp_path, doc)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", path, "--seed", "6", "--tol-override", "tol=1e-8", "--out", str(first)]) == 0
    assert main(["run", path, "--out", str(second)]) == 0
    assert seen == [(6, ["tol=1e-8"], None), (None, None, None)]
    assert json.loads((tmp_path / "first.result.json").read_text())["probe_seed"] == 6
    assert json.loads((tmp_path / "second.result.json").read_text())["probe_seed"] == 3

    seen.clear()
    assert main(["refine", path, "--n", "100", "120", "--out", str(tmp_path / "r1")]) == 0
    assert main(["refine", path, "--n", "110", "--out", str(tmp_path / "r2")]) == 0
    assert main(["refine", path]) == 1
    assert [s[2] for s in seen] == [[100, 120], [110], []]
    runs = json.loads((tmp_path / "r2.result.json").read_text())["runs"]
    assert [r["n"] for r in runs] == [110]


def test_a_negative_seed_gets_the_schema_message_on_every_command(tmp_path, capsys):
    """--seed reaches verify-all through its probes section, so the schema
    rejects a negative seed there before any work, as it does for a sweep."""
    for ref in ("ball-newtonian", "sweep-origin"):
        assert main(["run", ref, "--seed", "-1", "--out", str(tmp_path / ref)]) == 1
        assert capsys.readouterr().err.strip() == "error: probes 'seed' must not be negative"
    assert list(tmp_path.iterdir()) == []


def test_seed_override_reaches_the_battery(tmp_path, monkeypatch):
    seen = []

    def spy(spec, n, seed):
        seen.append((n, seed))
        return []

    monkeypatch.setattr(cli, "run_battery", spy)
    doc = {"schema": 1, "name": "va", "command": "verify-all", "n": 40}
    path = write_scenario(tmp_path, doc)
    seeded = write_scenario(tmp_path, dict(doc, probes={"seed": 9}), "seeded.json")
    assert main(["run", path, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
    assert main(["run", seeded, "--out", str(tmp_path / "c")]) == 0
    assert main(["run", seeded, "--seed", "6", "--out", str(tmp_path / "d")]) == 0
    assert seen == [(40, 5), (40, cli.PROBE_SEED), (40, 9), (40, 6)]
    payload = json.loads((tmp_path / "a.result.json").read_text())
    assert set(payload) == _ENVELOPE | {"n", "checks", "all_passed"}


@pytest.mark.parametrize(
    "argv, code, stream",
    [
        (["run", "sweep-origin", "--seed", "abc"], 1, "err"),
        (["bogus"], 1, "err"),
        ([], 1, "err"),
        (["--help"], 0, "out"),
        (["run", "--help"], 0, "out"),
    ],
    ids=["bad-seed", "unknown-mode", "no-mode", "help", "run-help"],
)
def test_exit_codes_follow_the_documented_contract(tmp_path, monkeypatch, capsys, argv, code,
                                                   stream):
    """A usage error exits 1, as every other error does, and --help exits 0:
    only a failed property exits 2."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert "usage: rieszlab" in getattr(capsys.readouterr(), stream)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "verdicts, names",
    [
        ({"mass_ok": False}, "mass-monotone"),
        ({"energy_ok": False}, "energy-monotone"),
        ({"domination_ok": False}, "domination"),
        ({"mass_ok": False, "energy_ok": False, "domination_ok": False},
         "mass-monotone, energy-monotone, domination"),
    ],
    ids=["mass", "energy", "domination", "all"],
)
def test_a_failed_sweep_invariant_exits_2(tmp_path, capsys, monkeypatch, verdicts, names):
    """No natural scenario at a few hundred nodes breaks a sweep invariant;
    a sweep whose verdicts are replaced shows how the CLI reports one."""
    sweep = cli.sweep

    def failing(*args, **kwargs):
        res = sweep(*args, **kwargs)
        return dataclasses.replace(res, checks=dataclasses.replace(res.checks, **verdicts))

    monkeypatch.setattr(cli, "sweep", failing)
    path = write_scenario(tmp_path, small_sweep())
    assert main(["run", path, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"property failed: {names}\n"
    checks = json.loads((tmp_path / "s.result.json").read_text())["checks"]
    assert {key: checks[key] for key in verdicts} == verdicts


def test_a_broken_maximum_principle_exits_2(tmp_path, capsys, monkeypatch):
    riesz_equilibrium = cli.riesz_equilibrium

    def failing(*args, **kwargs):
        return dataclasses.replace(riesz_equilibrium(*args, **kwargs), probe_potential_max=1.5)

    monkeypatch.setattr(cli, "riesz_equilibrium", failing)
    doc = {"schema": 1, "name": "eq", "command": "equilibrium",
           "kernel": {"alpha": 2.0, "dim": 3},
           "region": dict(COMPLEMENT, shape="sphere"), "probes": {"n": 20, "seed": 3}}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err == "property failed: maximum-principle\n"
    with (tmp_path / "e.table.csv").open() as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    assert rows["probe-potential-max"]["value"] == "1.5"


def test_identity_gap_of_a_source_off_the_nodes_is_infinite(tmp_path, capsys):
    """The origin is no node of the ball complement, so sweeping it is no identity."""
    path = write_scenario(tmp_path, small_sweep(expected={"identity_gap": 0.0}))
    assert main(["run", path, "--out", str(tmp_path / "i")]) == 2
    assert capsys.readouterr().err == "property failed: identity-gap\n"
    with (tmp_path / "i.table.csv").open() as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    assert (rows["identity-gap"]["value"], rows["identity-gap"]["passed"]) == ("inf", "false")
