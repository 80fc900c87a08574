"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload: an untraced and a traced run with one seed and an
untraced run with another.  Checks that each run exits 0 and ends with the
result line, that every metric of BENCHMARK.json is emitted with its unit
(and every end-to-end metric of NOTES.md on the description lines), and
that the input hash repeats for the same seed and changes with the seed.
Also checks that a traced name missing from the library is reported as
unmeasured instead of crashing the traced run.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# failed_frac is reported on the description lines only: it reads 0 on
# fresh-n2000, so it cannot carry a relative bound in BENCHMARK.json.
DESCRIBED = ["wall_s", "setup_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb",
             "failed_frac", "closed_form_err_p50", "closed_form_err_max"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, f"{workload} seed {seed} trace {trace}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    described = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 6 and parts[0] == "#" and parts[3] == "=":
            described[parts[2]] = parts[5]
    return result, info, described


def check_missing_name() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rieszlab.kelvin
    from spans import Tracer

    saved = rieszlab.kelvin.invert_shape
    del rieszlab.kelvin.invert_shape
    try:
        tracer = Tracer()
        tracer.install()
        assert "kelvin.invert_shape" in tracer.unmeasured, tracer.unmeasured
        assert tracer.metrics()["kelvin.invert_shape.calls"] == (0, "count")
    finally:
        rieszlab.kelvin.invert_shape = saved
    print("ok a missing traced name is reported as unmeasured")


def main() -> int:
    check_missing_name()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in sorted(WORKLOADS):
        hashes = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, info, described = run(workload, seed, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True, info["violations"]
            assert result["attempted"] == info["ops"] >= 1
            declared = bench["per_layer" if trace else "end_to_end"]
            assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
            for m in declared:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
            if not trace:
                for name in DESCRIBED:
                    assert name in described, (workload, name)
            assert info["env"]["blas_thread_cap"]["OPENBLAS_NUM_THREADS"]
            hashes.setdefault(seed, set()).add(info["input_hash"])
            print(f"ok {workload} seed={seed} trace={trace} ops={info['ops']} failed={result['failed']}")
        assert len(hashes[1]) == 1, f"{workload}: one seed gave two input hashes"
        assert hashes[1] != hashes[2], f"{workload}: two seeds gave the same inputs"
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
