"""Seeded inputs, ops and correctness checks for the three workloads.

Every workload draws its inputs from ``numpy.random.default_rng([seed, k])``
before timing starts and hands the library plain numbers or scenario files.
Ops come in *rounds*: a round holds the workload's whole op mix in fixed
proportions, shuffled by the seed, so that failure shares and tail latencies
do not depend on how a seed happens to fall.  Continuous parameters that
change the cost or the error of an op (depths, pole counts, radii, node
counts) are stratified over the stream for the same reason.

An op is split into ``execute`` (timed; only library calls) and ``check``
(untimed; closed forms and output validation).  ``execute`` may raise: the
runner counts that as a failed op and keeps the exception type.

The library is always reached through module attributes looked up at call
time (``rl.sweep``, ``rieszlab.cli.main``), so the traced run can swap the
public names in memory without touching ``src/``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Relative closed-form error allowed per check before the output counts as
# wrong.  The half-space limits sit above the truncation bias present at the
# seed (0.082 at alpha=2 and 0.228 at alpha=1.5 for N=2000; see NOTES.md);
# the other limits are a few times the discretization error at the sizes
# used here.
CLOSED_FORM_TOL = {
    "sweep-mass/bounded/a2": 0.03,
    "sweep-mass/ball-complement/a2": 0.03,
    "sweep-mass/half-space/a2": 0.15,
    "sweep-mass/half-space/a1.5": 0.35,
    "sweep-mass/half-space/a1": 0.8,
    "capacity/a2": 0.03,
    "green-value/y=0": 0.05,
    "green-capacity": 0.15,
}

# Failures present at the seed commit.  An op that fails for one of these
# reasons still counts in ``failed``; one that fails for any other reason is
# reported as unexplained.
KNOWN_DEFECTS = {
    "complement-alpha<2": "ball complement at alpha<2: the Gram matrix of the "
    "layered layout is not positive definite, the solver falls back to "
    "projected gradients and then fails (SolverFailure / exit 1), runs into "
    "the deadline, or probe sampling raises a bare RuntimeError",
    "complement-probes": "ball complement at small n: probes keep three mean "
    "node spacings from the nodes, which leaves almost none of the hole, and "
    "sample_points_off raises a bare RuntimeError",
    "wiener-shells": "wiener shell regions take their regularization from the "
    "mean spacing of Halton shell nodes; at shell budgets below about 300 "
    "some shells get a Gram matrix that is not positive definite and the "
    "equilibrium solve falls back to projected gradients, then fails or runs "
    "into the deadline",
    "seed-flag": "`rieszlab run --seed` adds a 'probes' key to every scenario, "
    "which the strict schema rejects for green-eval, green-equilibrium, "
    "kelvin-check, wiener and mass-loss (exit 1)",
    "green-minimality": "verify_green_minimality compares competitor energy "
    "with 1/capacity although the energy of gamma equals the capacity, so it "
    "reports ok=False when the capacity is well below 1",
}


@dataclass
class Outcome:
    """What the harness learned from one op."""

    failure: str | None = None  # why the library call failed, if it did
    errors: list = field(default_factory=list)  # (closed-form label, rel err)
    violations: list = field(default_factory=list)  # harness checks that broke


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rel(value: float, exact: float) -> float:
    return abs(float(value) - exact) / abs(exact)


def _closed_form(out: Outcome, label: str, value: float, exact: float, tiny: bool) -> None:
    # The smoke test's tiny discretizations are coarse: limits double there.
    limit = CLOSED_FORM_TOL[label] * (2.0 if tiny else 1.0)
    err = _rel(value, exact)
    out.errors.append((label, err))
    if not np.isfinite(err) or err > limit:
        out.violations.append(f"{label}: relative error {err:.4g} > {limit}")


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw from each of n equal strata of [lo, hi), in seeded order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


class Workload:
    """Base class: subclasses fill in the op mix, set-up, execute and check."""

    name = ""
    round_size = 0
    deadline_s = None  # an op still running after this many seconds fails

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        self.tiny = tiny
        self.work_dir = work_dir
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(self.name)])

    def generate(self, n_rounds: int) -> list[list[dict]]:
        """Seeded ops, ``n_rounds`` rounds of ``round_size`` each."""
        raise NotImplementedError

    def setup(self, rl) -> None:
        """Build what every op shares; timed as part of ``setup_s``."""

    def execute(self, rl, op: dict):
        raise NotImplementedError

    def check(self, op: dict, raw) -> Outcome:
        raise NotImplementedError

    def known_defect(self, op: dict, failure: str) -> str | None:
        """Key of KNOWN_DEFECTS that explains a failed op, if any."""
        return None


# ---------------------------------------------------------------------------
# fresh-n2000: one factorization per op.

FRESH_MIX = [
    ("ball", 2.0),
    ("sphere", 2.0),
    ("ball-complement", 2.0),
    ("half-space", 2.0),
    ("ball", 1.5),
    ("sphere", 1.5),
    ("half-space", 1.5),
]


class FreshN2000(Workload):
    name = "fresh-n2000"
    round_size = len(FRESH_MIX)

    @property
    def n(self) -> int:
        return 150 if self.tiny else 2000

    def generate(self, n_rounds):
        # The source's distance (its height for a half-space) sets the swept
        # mass and its error; stratify it per shape over the stream.
        depth = [_strata(self.rng, n_rounds, 0.0, 1.0) for _ in FRESH_MIX]
        rounds = []
        for k in range(n_rounds):
            ops = []
            for i in self.rng.permutation(len(FRESH_MIX)):
                shape, alpha = FRESH_MIX[i]
                u = float(depth[i][k])
                op = {"kind": f"{shape}/a{alpha:g}", "shape": shape, "alpha": alpha, "n": self.n}
                if shape == "half-space":
                    normal = _unit(self.rng)
                    offset = float(self.rng.uniform(-1.0, 1.0))
                    lateral = self.rng.normal(size=3) * 0.3
                    lateral -= (lateral @ normal) * normal
                    height = 0.3 + 1.2 * u
                    op.update(normal=normal.tolist(), offset=offset,
                              source=((offset - height) * normal + lateral).tolist())
                else:
                    center = self.rng.uniform(-0.5, 0.5, 3)
                    radius = float(self.rng.uniform(0.5, 2.0))
                    if shape == "ball-complement":
                        dist = radius * 0.6 * u
                    else:
                        dist = radius * (1.5 + 2.5 * u)
                    op.update(center=center.tolist(), radius=radius,
                              source=(center + dist * _unit(self.rng)).tolist(), dist=dist)
                ops.append(op)
            rounds.append(ops)
        return rounds

    def execute(self, rl, op):
        spec = rl.KernelSpec(op["alpha"], 3)
        shape = {
            "ball": lambda: rl.Ball(op["center"], op["radius"]),
            "sphere": lambda: rl.SphereShell(op["center"], op["radius"]),
            "ball-complement": lambda: rl.BallComplement(op["center"], op["radius"]),
            "half-space": lambda: rl.HalfSpace(op["normal"], op["offset"]),
        }[op["shape"]]()
        region = rl.build_region(shape, op["n"], spec)
        res = rl.sweep(spec, rl.dirac(op["source"]), region)
        eq = rl.riesz_equilibrium(spec, region) if shape.bounded else None
        return res, eq

    def known_defect(self, op, failure):
        if op["shape"] == "ball-complement" and "probe sampling failed" in failure:
            return "complement-probes"
        return None

    def check(self, op, raw):
        res, eq = raw
        out = Outcome()
        c = res.checks
        bad = [n for n in ("mass_ok", "energy_ok", "domination_ok") if not getattr(c, n)]
        if not res.solution.converged:
            bad.append("converged")
        if eq is not None and not eq.solution.converged:
            bad.append("equilibrium converged")
        if bad:
            out.failure = "verdict false: " + ", ".join(bad)
        if op["alpha"] == 2.0 and op["shape"] in ("ball", "sphere"):
            _closed_form(out, "sweep-mass/bounded/a2", c.mass_out, op["radius"] / op["dist"], self.tiny)
            _closed_form(out, "capacity/a2", eq.capacity, op["radius"], self.tiny)
        elif op["alpha"] == 2.0 and op["shape"] == "ball-complement":
            _closed_form(out, "sweep-mass/ball-complement/a2", c.mass_out, 1.0, self.tiny)
        elif op["shape"] == "half-space":
            _closed_form(out, f"sweep-mass/half-space/a{op['alpha']:g}", c.mass_out, 1.0, self.tiny)
        return out


# ---------------------------------------------------------------------------
# green-poles: many right-hand sides against one factor.

# Per round: one many-pole op, one energy decomposition and eight single-pole
# evaluations (two at y=0, two swapped pairs, four plain pairs).  With one
# many-pole op in ten, p90 falls between the slowest other op (the largest
# decomposition) and the smallest pole count; both are stratum centres, so
# they repeat from seed to seed.
GREEN_MIX = ["equilibrium", "decomposition", "eval-origin", "eval-origin",
             "eval-swap", "eval-swap", "eval", "eval", "eval", "eval"]


class GreenPoles(Workload):
    name = "green-poles"
    round_size = len(GREEN_MIX)

    @property
    def n(self) -> int:
        return 200 if self.tiny else 2000

    @property
    def poles(self) -> tuple[int, int]:
        return (8, 16) if self.tiny else (50, 200)

    def _point(self) -> list:
        return (float(self.rng.uniform(0.1, 0.8)) * _unit(self.rng)).tolist()

    def generate(self, n_rounds):
        rounds = []
        # Radius and pole count take the stratum centres in one seeded order,
        # so the compact sphere's node spacing stays comparable (m grows
        # about as r^2) and the smallest pole counts, which set p90, repeat.
        order = (self.rng.permutation(n_rounds) + 0.5) / n_rounds
        radii = 0.3 + 0.4 * order
        lo, hi = self.poles
        poles = np.rint(lo + (hi - lo) * order).astype(int)
        atoms = iter(np.rint(4 + 8 * (self.rng.permutation(n_rounds) + 0.5) / n_rounds).astype(int))
        origin_radii = iter(_strata(self.rng, 2 * n_rounds, 0.1, 0.7))
        for k in range(n_rounds):
            ops = []
            for i in self.rng.permutation(len(GREEN_MIX)):
                kind = GREEN_MIX[i]
                op = {"kind": kind}
                if kind == "equilibrium":
                    op.update(r=float(radii[k]), m=int(poles[k]))
                elif kind == "decomposition":
                    k_atoms = int(next(atoms))
                    op.update(points=[self._point() for _ in range(k_atoms)],
                              weights=self.rng.uniform(0.5, 1.5, k_atoms).tolist())
                elif kind == "eval-origin":
                    x = float(next(origin_radii)) * _unit(self.rng)
                    op.update(x=x.tolist(), y=[0.0, 0.0, 0.0])
                else:
                    op.update(x=self._point(), y=self._point())
                ops.append(op)
            rounds.append(ops)
        return rounds

    def setup(self, rl):
        self.spec = rl.KernelSpec(2.0, 3)
        self.region = rl.ball_complement_region(np.zeros(3), 1.0, self.n, self.spec)
        self.region.gram(self.spec).cholesky()

    def execute(self, rl, op):
        gk = rl.GreenKernel(self.spec, self.region)
        kind = op["kind"]
        if kind == "equilibrium":
            compact = rl.sphere_region(np.zeros(3), op["r"], op["m"], self.spec)
            eq = rl.green_equilibrium(gk, compact)
            return eq, rl.verify_green_minimality(gk, compact, eq)
        if kind == "decomposition":
            nu = rl.DiscreteMeasure(op["points"], op["weights"])
            return rl.verify_energy_decomposition(gk, nu)
        value = rl.green_eval(gk, op["x"], op["y"])
        if kind == "eval-swap":
            return value, rl.green_eval(gk, op["y"], op["x"])
        return value

    def check(self, op, raw):
        out = Outcome()
        kind = op["kind"]
        if kind == "equilibrium":
            eq, minimality = raw
            if not eq.solution.converged:
                out.failure = "verdict false: converged"
            elif not minimality["ok"]:
                out.failure = "verdict false: verify_green_minimality ok"
            r = op["r"]
            _closed_form(out, "green-capacity", eq.capacity, r / (1.0 - r), self.tiny)
        elif kind == "decomposition":
            if not raw["rel_gap"] <= 1e-8:
                out.violations.append(f"energy decomposition gap {raw['rel_gap']:.3g}")
        elif kind == "eval-swap":
            a, b = raw
            gap = abs(a - b) / max(abs(a), abs(b))
            if not (a > 0.0 and gap <= 1e-8):
                out.violations.append(f"green symmetry: g(x,y)={a!r}, g(y,x)={b!r}")
        else:
            if not raw > 0.0:
                out.violations.append(f"green value not positive: {raw!r}")
            if kind == "eval-origin":
                exact = 1.0 / float(np.linalg.norm(op["x"])) - 1.0
                _closed_form(out, "green-value/y=0", raw, exact, self.tiny)
        return out

    def known_defect(self, op, failure):
        if op["kind"] == "equilibrium" and "verify_green_minimality" in failure:
            return "green-minimality"
        return None


# ---------------------------------------------------------------------------
# cli-scenarios: the whole catalog through the CLI, many small problems.

CLI_ALPHAS = (2.0, 1.5, 1.0)
# (command, target shape) pairs; each runs at every alpha in CLI_ALPHAS.
CLI_CATALOG = [
    ("sweep", "ball"),
    ("sweep", "sphere"),
    ("sweep", "ball-complement"),
    ("sweep", "half-space"),
    ("sweep", "union"),
    ("sweep", "cloud"),
    ("equilibrium", "ball"),
    ("equilibrium", "sphere"),
    ("equilibrium", "union"),
    ("equilibrium", "cloud"),
    ("green-eval", "ball-complement"),
    ("green-eval", "ball"),
    ("green-eval", "half-space"),
    ("green-equilibrium", "ball-complement"),
    ("green-equilibrium", "half-space"),
    ("kelvin-check", None),
    ("wiener", "ball"),
    ("wiener", "sphere"),
    ("wiener", "half-space"),
    ("wiener", "union"),
    ("wiener", "cloud"),
    ("wiener-at-infinity", "ball"),
    ("wiener-at-infinity", "half-space"),
    ("mass-loss", "ball"),
    ("mass-loss", "ball-complement"),
    ("mass-loss", "half-space"),
]
# `run --seed` works for these commands only; for the others it adds a
# "probes" key that the strict schema rejects (exit 1, a seed-state defect).
# Catalog ops of the other commands run without the flag, and each round
# adds one op per such command with the flag, so the defect stays counted.
SEED_FLAG_COMMANDS = ("sweep", "equilibrium")
SEED_FLAG_PROBES = [
    ("green-eval", "ball"),
    ("green-equilibrium", "half-space"),
    ("kelvin-check", None),
    ("wiener", "sphere"),
    ("mass-loss", "ball"),
]


def _spiral(n: int) -> np.ndarray:
    """n golden-angle spiral points on the unit sphere."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    theta = np.pi * (1.0 + 5.0**0.5) * k
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


# shape -> n -> (region, boundary point, inversion centre for at_infinity)
WIENER_SETS = {
    "ball": lambda n: ({"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                       [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]),
    "sphere": lambda n: ({"shape": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                         [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]),
    "half-space": lambda n: ({"shape": "half-space", "normal": [0.0, 0.0, 1.0], "offset": 0.0},
                             [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]),
    "union": lambda n: ({"shape": "union", "parts": [
        {"shape": "ball", "center": [-1.0, 0.0, 0.0], "radius": 0.6},
        {"shape": "ball", "center": [0.9, 0.0, 0.0], "radius": 0.5}]},
        [-0.4, 0.0, 0.0], [0.0, 2.0, 0.0]),
    "cloud": lambda n: ({"shape": "cloud", "points": _spiral(n).tolist()},
                        _spiral(n)[0].tolist(), [0.0, 0.0, 3.0]),
}


class CliScenarios(Workload):
    name = "cli-scenarios"
    round_size = len(CLI_CATALOG) * len(CLI_ALPHAS) + len(SEED_FLAG_PROBES)
    # Healthy scenarios finish in under 0.15 s at n <= 500.  The projected-
    # gradient fallback reached by the alpha<2 complement and by small wiener
    # shell budgets runs 1-100 s before failing; the deadline bounds that
    # cost so the run ends in time and its length does not hinge on it.
    deadline_s = 0.3

    @property
    def sizes(self) -> tuple[int, int]:
        return (60, 120) if self.tiny else (200, 500)

    def _shape_doc(self, shape: str, n: int) -> dict:
        rng = self.rng
        if shape == "ball-complement":
            # Centred, so that the layout (and with it the cost of the
            # alpha<2 failures) depends on n and alpha only.
            return {"shape": shape, "center": [0.0, 0.0, 0.0],
                    "radius": float(rng.uniform(0.7, 1.5)), "n": n}
        if shape in ("ball", "sphere"):
            return {"shape": shape, "center": rng.uniform(-0.3, 0.3, 3).tolist(),
                    "radius": float(rng.uniform(0.7, 1.5)), "n": n}
        if shape == "half-space":
            return {"shape": shape, "normal": _unit(rng).tolist(),
                    "offset": float(rng.uniform(-0.5, 0.5)), "n": n}
        if shape == "union":
            r1, r2 = rng.uniform(0.4, 0.8, 2)
            gap = float(rng.uniform(0.3, 1.0))
            axis = _unit(rng)
            return {"shape": "union", "n": n, "parts": [
                {"shape": "ball", "center": (-(r1 + gap / 2) * axis).tolist(), "radius": float(r1)},
                {"shape": "ball", "center": ((r2 + gap / 2) * axis).tolist(), "radius": float(r2)},
            ]}
        # A quasi-uniform cloud: a jittered spiral layout on a seeded sphere.
        pts = _spiral(n) * float(rng.uniform(0.7, 1.5))
        pts *= 1.0 + 0.02 * rng.uniform(-1.0, 1.0, (n, 1))
        return {"shape": "cloud", "points": pts.tolist()}

    def _exterior_source(self, doc: dict) -> list:
        """A point at distance 1.5-3 radii from the centre of a bounded shape."""
        rng = self.rng
        if doc["shape"] == "union":
            return (3.0 * _unit(rng)).tolist()
        if doc["shape"] == "cloud":
            r = float(np.linalg.norm(doc["points"][0]))
            return (r * float(rng.uniform(1.5, 3.0)) * _unit(rng)).tolist()
        c = np.asarray(doc["center"])
        return (c + doc["radius"] * float(rng.uniform(1.5, 3.0)) * _unit(rng)).tolist()

    def _below(self, doc: dict, lo: float, hi: float) -> list:
        normal = np.asarray(doc["normal"])
        return ((doc["offset"] - float(self.rng.uniform(lo, hi))) * normal).tolist()

    def _scenario(self, command: str, shape: str | None, alpha: float, u: float) -> tuple[dict, dict]:
        """A scenario document and the harness's notes on it (closed forms).

        ``u`` in (0, 1) is the scenario's stratum; it sets the node count and
        every other parameter that decides whether a seed-state failure
        path is taken, so those paths repeat from seed to seed.
        """
        rng = self.rng
        lo, hi = self.sizes
        n = int(round(lo + (hi - lo) * u))
        doc = {"schema": 1, "name": f"{command}-{shape}", "command": command,
               "kernel": {"alpha": alpha, "dim": 3}}
        meta = {"command": command, "shape": shape, "alpha": alpha, "n": n}
        if command in ("sweep", "mass-loss"):
            # mass-loss runs the same sweep without checks; only the sweep
            # command's swept mass is compared with the closed forms.
            region = self._shape_doc(shape, n)
            exact = None
            if shape == "ball-complement":
                src = region["center"]
                exact = 1.0 if alpha == 2.0 else None
            elif shape == "half-space":
                src = self._below(region, 0.3, 1.5)
                exact = 1.0
            else:
                src = self._exterior_source(region)
                if alpha == 2.0 and shape in ("ball", "sphere"):
                    exact = region["radius"] / float(np.linalg.norm(np.asarray(src) - region["center"]))
            if command == "sweep":
                meta["exact_mass"] = exact
            doc.update(region=region, source={"points": [src], "weights": [1.0]})
        elif command == "equilibrium":
            region = self._shape_doc(shape, n)
            doc.update(region=region, probes={"n": 50, "seed": int(rng.integers(1 << 30))})
            if alpha == 2.0 and shape in ("ball", "sphere"):
                meta["exact_capacity"] = region["radius"]
        elif command == "green-eval":
            region = self._shape_doc(shape, n)
            if shape == "ball-complement":
                # Only the unit ball has the listed closed form g(x,0) = 1/|x| - 1.
                region.update(center=[0.0, 0.0, 0.0], radius=1.0)
                x = (float(rng.uniform(0.2, 0.7)) * _unit(rng)).tolist()
                y = [0.0, 0.0, 0.0]
                if alpha == 2.0:
                    meta["exact_value"] = 1.0 / float(np.linalg.norm(x)) - 1.0
            elif shape == "half-space":
                x, y = self._below(region, 0.5, 1.5), self._below(region, 0.5, 1.5)
                x = (np.asarray(x) + 0.3 * _unit(rng)).tolist()
            else:
                x, y = self._exterior_source(region), self._exterior_source(region)
            doc.update(region=region, x=x, y=y)
        elif command == "green-equilibrium":
            region = self._shape_doc(shape, n)
            m = 12 if self.tiny else 30
            r = 0.3 + 0.3 * u
            if shape == "ball-complement":
                region.update(center=[0.0, 0.0, 0.0], radius=1.0)
                center = [0.0, 0.0, 0.0]
                if alpha == 2.0:
                    meta["exact_capacity"] = r / (1.0 - r)
            else:
                center = self._below(region, 1.0, 2.0)
            doc.update(region=region,
                       compact={"shape": "sphere", "center": center, "radius": r, "n": m})
        elif command == "kelvin-check":
            atoms = int(rng.integers(3, 9))
            pts = [(float(rng.uniform(0.1, 0.8)) * _unit(rng)).tolist() for _ in range(atoms)]
            doc.update(center=(float(rng.uniform(1.5, 3.0)) * _unit(rng)).tolist(),
                       measure={"points": pts, "weights": rng.uniform(0.2, 1.5, atoms).tolist()},
                       samples={"n": 50, "seed": int(rng.integers(1 << 30))})
        else:  # wiener, at a boundary point or at infinity
            # Fixed sets and points, as in the builtin scenarios: whether a
            # shell budget hits the seed's shell defect depends on them.
            region, point, point_at_infinity = WIENER_SETS[shape](n)
            doc.update(command="wiener", region=region, ratio_q=0.5, k_max=8, shell_budget=n)
            if command == "wiener-at-infinity":
                doc.update(at_infinity=True, point=point_at_infinity)
            else:
                doc["point"] = point
        return doc, meta

    def generate(self, n_rounds):
        os.makedirs(self.work_dir, exist_ok=True)
        rounds = []
        pairs = [(c, s, a, c in SEED_FLAG_COMMANDS) for c, s in CLI_CATALOG for a in CLI_ALPHAS]
        pairs += [(c, s, 2.0, True) for c, s in SEED_FLAG_PROBES]
        # Each scenario takes every stratum centre of (0, 1) once over the
        # stream, in seeded order.
        strata = [(self.rng.permutation(n_rounds) + 0.5) / n_rounds for _ in pairs]
        for k in range(n_rounds):
            ops = []
            for i in self.rng.permutation(len(pairs)):
                command, shape, alpha, seed_flag = pairs[i]
                doc, meta = self._scenario(command, shape, alpha, float(strata[i][k]))
                meta["seed_flag"] = seed_flag
                path = os.path.join(self.work_dir, f"r{k}-{i}.json")
                text = json.dumps(doc, sort_keys=True)
                with open(path, "w") as fh:
                    fh.write(text)
                meta.update(kind=f"{command}/{shape}/a{alpha:g}", file=path, doc_text=text,
                            out=os.path.join(self.work_dir, f"r{k}-{i}.out"),
                            seed=int(self.rng.integers(1 << 30)))
                ops.append(meta)
            rounds.append(ops)
        return rounds

    def setup(self, rl):
        import rieszlab.cli  # noqa: F401  (the CLI layer is part of set-up)

    def execute(self, rl, op):
        import rieszlab.cli

        argv = ["run", op["file"], "--out", op["out"]]
        if op["seed_flag"]:
            argv += ["--seed", str(op["seed"])]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = rieszlab.cli.main(argv)
        if code != 0:
            raise CliExit(f"exit {code}: {err.getvalue().strip()[:200]}")
        return code

    def check(self, op, raw):
        out = Outcome()
        paths = [op["out"] + ".result.json", op["out"] + ".table.csv"]
        try:
            with open(paths[0]) as fh:
                payload = json.load(fh)
            if not os.path.getsize(paths[1]):
                raise ValueError("empty table.csv")
        except (OSError, ValueError) as exc:
            out.violations.append(f"output unreadable: {exc}")
            return out
        finally:
            for p in paths:
                with contextlib.suppress(OSError):
                    os.remove(p)
        if op.get("exact_mass") is not None:
            group = op["shape"] if op["shape"] in ("half-space", "ball-complement") else "bounded"
            label = f"sweep-mass/{group}/a{op['alpha']:g}"
            _closed_form(out, label, payload["swept"]["mass"], op["exact_mass"], self.tiny)
        if op.get("exact_capacity") is not None:
            label = "capacity/a2" if op["command"] == "equilibrium" else "green-capacity"
            _closed_form(out, label, payload["capacity"], op["exact_capacity"], self.tiny)
        if op.get("exact_value") is not None:
            _closed_form(out, "green-value/y=0", payload["value"], op["exact_value"], self.tiny)
        return out

    def known_defect(self, op, failure):
        if op["seed_flag"] and op["command"] not in SEED_FLAG_COMMANDS and "unknown key 'probes'" in failure:
            return "seed-flag"
        if op["shape"] == "ball-complement" and op["alpha"] < 2.0:
            return "complement-alpha<2"
        if op["shape"] == "ball-complement" and "probe sampling failed" in failure:
            return "complement-probes"
        if op["command"].startswith("wiener") and ("projected-gradient" in failure or "deadline" in failure):
            return "wiener-shells"
        return None


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""


WORKLOADS = {w.name: w for w in (FreshN2000, GreenPoles, CliScenarios)}
