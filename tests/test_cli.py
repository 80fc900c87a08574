import copy
import csv
import json

import pytest

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
    assert len(lines) == 11
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
            "error: union 'parts' must be a JSON list",
        ),
        (
            {"source": {"points": 5, "weights": [1.0]}},
            "error: measure 'points' must be a JSON list",
        ),
        (
            {"source": {"points": None, "weights": [1.0]}},
            "error: measure 'points' must be a JSON list",
        ),
        (
            {"source": {"points": {"a": 1}, "weights": [1.0]}},
            "error: measure 'points' must be a JSON list",
        ),
        (
            {"source": {"points": [[0.0, 0.0, 0.0]], "weights": 1.0}},
            "error: measure 'weights' must be a JSON list",
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
        ({"tol": {}}, "error: 'tol' must be a number"),
        ({"probes": {"n": [3]}}, "error: probes 'n' must be a number"),
    ],
    ids=["kernel", "probes", "expected", "union-parts", "points-number", "points-null",
         "points-object", "weights-number", "empty-points-with-weights", "alpha-list",
         "radius-list", "n-list", "tol-object", "probes-n-list"],
)
def test_non_object_section_exits_1(tmp_path, capsys, section, message):
    path = write_scenario(tmp_path, small_sweep(**section))
    assert main(["run", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == message


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
    if "region" in keys:
        assert "n_nodes" in payload["region"]
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
        ("green-eval", {"region": COMPLEMENT, "x": 0.5, "y": [0.0, 0.0, 0.0]}, "green-eval 'x'"),
        ("green-eval", {"region": COMPLEMENT, "x": [0.5, 0.0, 0.0], "y": 0}, "green-eval 'y'"),
        ("kelvin-check",
         {"center": 2.0, "measure": {"points": [[0.1, 0.2, 0.3]], "weights": [1.0]}},
         "kelvin-check 'center'"),
        ("wiener", {"region": BALL, "point": 1.0}, "wiener 'point'"),
        ("sweep", {"region": dict(COMPLEMENT, center=0.0),
                   "source": {"points": [[0.0, 0.0, 0.0]], "weights": [1.0]}},
         "shape 'ball-complement' 'center'"),
        ("wiener", {"region": {"shape": "half-space", "normal": 1.0, "offset": 0.0},
                    "point": [0.0, 0.0, 0.0]},
         "shape 'half-space' 'normal'"),
    ],
    ids=["green-eval-x", "green-eval-y", "kelvin-center", "wiener-point", "shape-center",
         "shape-normal"],
)
def test_scalar_point_field_exits_1(tmp_path, capsys, command, fields, where):
    doc = {"schema": 1, "name": "p", "command": command,
           "kernel": {"alpha": 2.0, "dim": 3}, **fields}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {where} must be a list of 3 numbers"
