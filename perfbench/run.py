"""rieszlab benchmark: seeded workloads run end to end, with a traced variant.

    python3 perfbench/run.py --workload fresh-n2000 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in child processes (child.py) against ``src/`` of this
checkout: one client, ops one after another, BLAS capped at one thread.
``--seconds`` sets the length of the op stream: as many rounds of the
workload's op mix as took about that long on the 2-core machine that
defined the benchmark, and never fewer than 100 ops.  The stream is
therefore the same on every commit for the same seed and seconds.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
set-up is repeated in SETUP_SAMPLES fresh processes and its median reported.
With ``--trace 1`` it runs a third of the stream untraced, then traced
(spans in memory, written to perfbench/traces/ at the end), then untraced
again, and reports the per-layer metrics plus the tracing overhead.

Earlier lines of standard output describe the run (environment, seed, op
counts, input hash, every failure with its cause); the last line is the
JSON result.  See NOTES.md for what each workload is for.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100  # so that at least ten samples lie beyond p90
# One client on one core: a neighbour on the other core cannot stall a BLAS
# thread barrier.  Recorded in every run's description line.
BLAS_THREADS = 1
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # per workload, all child processes together
# Seconds one round of each workload's mix took on the 2-core machine at
# the commit that defined the benchmark.  Constants, so the stream length never
# depends on the speed of the commit being measured.
ROUND_SECONDS = {"fresh-n2000": 1.35, "green-poles": 3.4, "cli-scenarios": 2.7}


class RunFailed(Exception):
    pass


def stream_rounds(workload: str, seconds: int, tiny: bool) -> int:
    if tiny:
        return 1
    size = WORKLOADS[workload].round_size
    return max(math.ceil(MIN_OPS / size), round(seconds / ROUND_SECONDS[workload]))


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same interpreter behaviour in every run
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time limit reached before all child processes ran")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles(method='inclusive')."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Metrics {name: (value, unit)} and a description of the run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    rounds = stream_rounds(name, seconds, tiny)
    work = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    common = [name, "--seed", str(seed), "--work", work] + (["--tiny"] if tiny else [])
    try:
        if trace:
            # Untraced, traced, untraced on the same ops, a third of the
            # stream each: the mean of the two untraced runs cancels a
            # linear drift of the machine's speed out of the overhead.
            rounds = max(1, math.ceil(rounds / 3))
            trace_file = os.path.join(HERE, "traces", f"{name}-seed{seed}.json")
            run_args = common + ["--mode", "run", "--rounds", str(rounds)]
            plain = [spawn(run_args, deadline)]
            main = spawn(run_args + ["--trace", trace_file], deadline)
            plain.append(spawn(run_args, deadline))
        else:
            setups = [spawn(common + ["--mode", "setup"], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            main = spawn(common + ["--mode", "run", "--rounds", str(rounds)], deadline)
            setups.append(main["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = main["latencies"]
    errs = [e for _, e in main["errors"]]
    wall = sum(lat)
    violations = list(main["violations"])
    metrics = {}
    if trace:
        plain_wall = statistics.mean(sum(p["latencies"]) for p in plain)
        if any(p["input_hash"] != main["input_hash"] for p in plain):
            violations.append("traced and untraced children generated different inputs")
        for key, (value, unit) in main["layers"].items():
            metrics[key] = (value, unit)
        metrics["trace.overhead_frac"] = (wall / plain_wall - 1.0, "1")
    metrics.update({
        "wall_s": (wall, "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "failed_frac": (len(main["failures"]) / len(lat), "1"),
        "closed_form_err_p50": (statistics.median(errs), "1"),
        "closed_form_err_max": (max(errs), "1"),
    })
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    info = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "rounds": rounds,
        "ops": len(lat),
        "op_kinds": main["op_kinds"],
        "input_hash": main["input_hash"],
        "closed_form_checks": len(errs),
        "env": main["env"],
        "failures": main["failures"],
        "known_defects": main["known_defects"],
        "unexplained_failures": sum(f["known_defect"] is None for f in main["failures"]),
        "violations": violations,
        "unmeasured": main.get("unmeasured", []),
    }
    if not trace:
        info["setup_samples_s"] = setups
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, one round (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "rieszlab")):
        print(f"error: no src/rieszlab under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            metrics, info = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("# " + json.dumps(info, sort_keys=True))
        for key in sorted(metrics):
            value, unit = metrics[key]
            print(f"# {name} {key} = {value!r} {unit}")
        results.append((name, metrics, info))

    final_metrics = {}
    for name, metrics, _ in results:
        for m in declared:
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                print(f"error: {m['name']}: unit {unit} differs from BENCHMARK.json", file=sys.stderr)
                return 1
            key = m["name"] if len(results) == 1 else f"{name}.{m['name']}"
            final_metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(not info["violations"] for _, _, info in results),
        "attempted": sum(info["ops"] for _, _, info in results),
        "failed": sum(len(info["failures"]) for _, _, info in results),
        "metrics": final_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
