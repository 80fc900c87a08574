"""One workload in one process: set-up, seeded inputs, the timed op stream.

Started by run.py, never by hand.  The last line of standard output is a
JSON object with the raw samples; run.py turns them into metrics.

    child.py WORKLOAD --mode setup|run --seed N --rounds R --spawned T
             [--tiny] [--trace FILE] --work DIR
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Deadline(BaseException):
    """Raised in an op that outlives its workload's deadline.

    A BaseException, so that no ``except Exception`` in the library or the
    CLI can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rieszlab

    where = os.path.dirname(os.path.abspath(rieszlab.__file__))
    if where != os.path.join(ROOT, "src", "rieszlab"):
        raise SystemExit(f"rieszlab was imported from {where}, not from this checkout")
    return rieszlab


def _input_hash(rounds) -> str:
    """Hash of the generated inputs, without the run's own file paths."""
    skip = {"file", "out"}
    clean = [[{k: v for k, v in op.items() if k not in skip} for op in ops] for ops in rounds]
    return hashlib.sha256(json.dumps(clean, sort_keys=True).encode()).hexdigest()


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_thread_cap": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", help="write spans here and report per-layer metrics")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    rl = _import_library()
    from workloads import KNOWN_DEFECTS, WORKLOADS

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.work)
    wl.setup(rl)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = wl.generate(args.rounds)
    ops = [op for ops in rounds for op in ops]
    if wl.deadline_s:
        signal.signal(signal.SIGALRM, _on_alarm)

    latencies, failures, errors, violations = [], [], [], []
    for index, op in enumerate(ops):
        if tracer:
            tracer.begin_op(index)
        failure = raw = None
        start = time.perf_counter()
        try:
            if wl.deadline_s:
                signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
            try:
                raw = wl.execute(rl, op)
            finally:
                if wl.deadline_s:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            failure = f"deadline: still running after {wl.deadline_s} s"
        except Exception as exc:  # noqa: BLE001 - every failure is counted, with its type
            failure = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if failure is None:
            outcome = wl.check(op, raw)
            failure = outcome.failure
            errors.extend(outcome.errors)
            violations.extend(f"op {index} ({op['kind']}): {v}" for v in outcome.violations)
        if failure is not None:
            known = wl.known_defect(op, failure)
            failures.append({"op": index, "kind": op["kind"], "cause": failure[:300],
                             "known_defect": known})

    result = {
        "env": _environment(),
        "setup_s": setup_s,
        "latencies": latencies,
        "failures": failures,
        "errors": errors,
        "violations": violations,
        "op_kinds": dict(Counter(op["kind"] for op in ops)),
        "input_hash": _input_hash(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "known_defects": {k: KNOWN_DEFECTS[k] for k in sorted({f["known_defect"] for f in failures} - {None})},
    }
    if tracer:
        result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        result["unmeasured"] = tracer.unmeasured
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
