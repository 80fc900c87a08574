"""In-memory spans around the library's public calls, for the traced run.

``install`` swaps each traced public function, in every ``rieszlab`` module
namespace that holds it, and each traced public method on its class, for a
wrapper that records a span (name, start, end, parent, op id).  Nothing under
``src/`` changes and the untraced run never calls ``install``.  A name that
no longer exists is listed as unmeasured and its metrics read 0.

Self time is a span's duration minus the time its direct child spans cover.
Counters derived from array sizes (bytes, flops, pairs) are computed, not
measured.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "regions", "solver", "balayage", "green", "equilibrium",
           "kelvin", "thinness", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.unmeasured: list[str] = []
        self.op = None
        self._stack: list[list] = []  # [span index, start, child time]
        self._green_grams: set = set()

    def begin_op(self, op_id) -> None:
        # An op cut short by its deadline can leave spans open; drop them.
        self.op = op_id
        self._stack.clear()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args, kwargs)`` returns a token passed on to
        ``after(token, args, kwargs, result, duration)``, which runs when
        the call returns normally.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            start = time.perf_counter()
            frame = [index, start, 0.0]
            tracer._stack.append(frame)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                if tracer._stack and tracer._stack[-1] is frame:
                    tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1][2] += end - start
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[2]
                if after is not None and ok:
                    after(token, args, kwargs, result, end - start)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks that derive counters at the layer boundary -------------------

    def _gram_bytes(self, token, args, kwargs, gram, duration):
        self.counts["core.assemble_gram.bytes"] += 8 * gram.n * gram.n

    def _cholesky_before(self, args, kwargs):
        return self.counts["core.cho_factor"]

    def _cholesky_after(self, before, args, kwargs, result, duration):
        if self.counts["core.cho_factor"] > before:
            n = args[0].n
            self.counts["core.cholesky.factorizations"] += 1
            self.counts["core.cholesky.flops"] += n**3 // 3

    def _potential_pairs(self, args, kwargs):
        mu = args[1] if len(args) > 1 else kwargs["mu"]
        points = np.asarray(args[2] if len(args) > 2 else kwargs["points"])
        rows = 1 if points.ndim == 1 else len(points)
        self.counts["core.potential_at.pairs"] += rows * mu.n_points

    def _solve_after(self, name):
        def after(token, args, kwargs, sol, duration):
            self.counts[name + ".iterations"] += sol.iterations
            if sol.iterations == 1:
                self.counts[name + ".first_pass"] += 1
            if sol.method == "projected-gradient":
                self.calls["solver.fallback"] += 1
                self.self_s["solver.fallback"] += duration
                self.counts["solver.fallback.converged"] += int(sol.converged)
        return after

    def _sweeps_before(self, args, kwargs):
        return self.calls["balayage.sweep"]

    def _unit_charge_after(self, before, args, kwargs, result, duration):
        if self.calls["balayage.sweep"] > before:
            self.counts["green.swept_unit_charge.misses"] += 1

    def _green_gram_after(self, token, args, kwargs, result, duration):
        gk = args[0]
        nodes = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["nodes"], dtype=float)
        self.counts["green.green_gram.columns"] += len(nodes)
        key = (self.op, id(gk), hashlib.sha1(nodes.tobytes()).hexdigest())
        if key in self._green_grams:
            self.counts["green.green_gram.repeat_builds"] += 1
        self._green_grams.add(key)

    def _wiener_after(self, token, args, kwargs, report, duration):
        self.counts["thinness.wiener_report.shells"] += len(report.shells)

    def _cli_after(self, token, args, kwargs, code, duration):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            prefix = argv[argv.index("--out") + 1]
            for suffix in (".result.json", ".table.csv"):
                path = prefix + suffix
                if os.path.exists(path):
                    self.counts["cli.main.bytes_written"] += os.path.getsize(path)

    # -- installation -------------------------------------------------------

    def targets(self):
        """(span name, module, attribute or Class.method, before, after)."""
        return [
            ("core.assemble_gram", "core", "assemble_gram", None, self._gram_bytes),
            ("core.cholesky", "core", "GramMatrix.cholesky", self._cholesky_before, self._cholesky_after),
            ("core.potential_at", "core", "potential_at", self._potential_pairs, None),
            ("regions.build_region", "regions", "build_region", None, None),
            ("regions.sample_points_off", "regions", "sample_points_off", None, None),
            ("solver.solve_nonneg", "solver", "solve_nonneg", None, self._solve_after("solver.solve_nonneg")),
            ("solver.solve_simplex", "solver", "solve_simplex", None, self._solve_after("solver.solve_simplex")),
            ("balayage.sweep", "balayage", "sweep", None, None),
            ("balayage.source_potentials_on_nodes", "balayage", "source_potentials_on_nodes", None, None),
            ("green.swept_unit_charge", "green", "GreenKernel.swept_unit_charge",
             self._sweeps_before, self._unit_charge_after),
            ("green.green_gram", "green", "green_gram", None, self._green_gram_after),
            ("green.green_values", "green", "green_values", None, None),
            ("equilibrium.riesz_equilibrium", "equilibrium", "riesz_equilibrium", None, None),
            ("equilibrium.green_equilibrium", "equilibrium", "green_equilibrium", None, None),
            ("equilibrium.verify_green_minimality", "equilibrium", "verify_green_minimality", None, None),
            ("kelvin.kelvin_transform", "kelvin", "kelvin_transform", None, None),
            ("kelvin.invert_shape", "kelvin", "invert_shape", None, None),
            ("thinness.wiener_report", "thinness", "wiener_report", None, self._wiener_after),
            ("thinness.mass_loss_test", "thinness", "mass_loss_test", None, None),
            ("cli.main", "cli", "main", None, self._cli_after),
        ]

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module("rieszlab." + short)
            except ImportError:
                pass
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "rieszlab" or n.startswith("rieszlab."))]

        # Factorizations are the calls into cho_factor made from core, where
        # GramMatrix.cholesky lives; the solver's own sub-block factors are
        # not counted.
        core = modules.get("core")
        if core is not None and hasattr(core, "cho_factor"):
            core.cho_factor = self._counting(core.cho_factor, "core.cho_factor")
        else:
            self.unmeasured.append("core.cholesky.factorizations")

        for name, short, attr, before, after in self.targets():
            module = modules.get(short)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.unmeasured.append(name)
                continue
            wrapped = self.span(name, original, before, after)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def _counting(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        out: dict[str, tuple] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        def layer(name, timed=True, **extra):
            out[name + ".calls"] = (calls[name], "count")
            if timed:
                out[name + ".self_s"] = (self_s[name], "s")
            for key, unit in extra.items():
                out[f"{name}.{key}"] = (c[f"{name}.{key}"], unit)

        layer("core.assemble_gram", bytes="bytes")
        out["core.cholesky.factorizations"] = (c["core.cholesky.factorizations"], "count")
        out["core.cholesky.self_s"] = (self_s["core.cholesky"], "s")
        out["core.cholesky.flops"] = (c["core.cholesky.flops"], "count")
        layer("core.potential_at", pairs="count")
        layer("regions.build_region")
        layer("regions.sample_points_off", errors="count")
        layer("solver.solve_nonneg", iterations="count")
        layer("solver.solve_simplex", iterations="count")
        out["solver.first_pass_ratio"] = (
            ratio(c["solver.solve_nonneg.first_pass"], calls["solver.solve_nonneg"]), "1")
        out["solver.fallback.calls"] = (calls["solver.fallback"], "count")
        out["solver.fallback.self_s"] = (self_s["solver.fallback"], "s")
        out["solver.fallback.converged_ratio"] = (
            ratio(c["solver.fallback.converged"], calls["solver.fallback"]), "1")
        layer("balayage.sweep")
        out["balayage.source_potentials_on_nodes.self_s"] = (
            self_s["balayage.source_potentials_on_nodes"], "s")
        layer("green.swept_unit_charge", timed=False, misses="count")
        out["green.swept_unit_charge.hit_ratio"] = (
            1.0 - ratio(c["green.swept_unit_charge.misses"], calls["green.swept_unit_charge"])
            if calls["green.swept_unit_charge"] else 0.0, "1")
        layer("green.green_gram", columns="count", repeat_builds="count")
        layer("green.green_values")
        layer("equilibrium.riesz_equilibrium")
        layer("equilibrium.green_equilibrium")
        layer("equilibrium.verify_green_minimality")
        layer("kelvin.kelvin_transform")
        out["kelvin.invert_shape.calls"] = (calls["kelvin.invert_shape"], "count")
        layer("thinness.wiener_report", shells="count")
        layer("thinness.mass_loss_test")
        layer("cli.main", bytes_written="bytes")
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write every span once, at the end of the run."""
        doc = dict(extra, unmeasured=self.unmeasured, fields=["name", "start", "end", "parent", "op"],
                   spans=[list(s) for s in self.spans if s is not None])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
