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
