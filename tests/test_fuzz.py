"""Bad-input traffic: random calls of the library's entry points and of
``cli.main``, each of which must return or raise a RieszLabError.

Each trial draws an entry point and its arguments from its own generator,
seeded by SEED and the trial number, so any trial reruns alone.  The draws
mix good and bad values: every catalog shape, centered at the origin, near
it or 1e8 away, with radii from 1e-12 to 1e8; the kernel orders of ALPHAS;
the node counts of COUNTS; points inside, outside, on the boundary and on
nodes; tolerances from BAD_TOLS; and counts and seeds from ODD_COUNTS.  A
ValueError, TypeError or warning that escapes is a defect: a bad input
the library does not check, or a fault of its own.
"""
import json

import numpy as np
import pytest

import rieszlab as rl
from rieszlab import cli
from rieszlab.regions import SHAPES

SEED = 4343
TRIALS = 200

ALPHAS = (2.0, 1.99, 1.5, 1.0, 0.5, 0.1)
COUNTS = (0, 1, 2, 3, 7, 50, 300)
BAD_TOLS = (float("nan"), float("inf"), 0.0, -1.0, 1e-300)
ODD_COUNTS = (2.5, -3, True, np.int64(7))


class Draw:
    """The draws of one trial."""

    def __init__(self, trial: int):
        self.rng = np.random.default_rng([SEED, trial])

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def chance(self, p: float) -> bool:
        return bool(self.rng.random() < p)

    def spec(self) -> rl.KernelSpec:
        if self.chance(0.05):
            return rl.KernelSpec(self.pick((0.0, 2.5, float("nan"))), 3)
        return rl.KernelSpec(self.pick(ALPHAS), 3)

    def direction(self) -> np.ndarray:
        u = self.rng.normal(size=3)
        return u / np.linalg.norm(u)

    def center(self) -> np.ndarray:
        """The origin half the time, else a point near it or 1e8 away."""
        if self.chance(0.5):
            return np.zeros(3)
        return self.pick((self.rng.normal(size=3), 1e8 * self.direction()))

    def radius(self) -> float:
        return float(10.0 ** self.rng.uniform(-12.0, 8.0))

    def tol(self, good: float) -> float:
        return self.pick(BAD_TOLS) if self.chance(0.25) else good

    def count(self, good):
        return self.pick(ODD_COUNTS) if self.chance(0.25) else good

    def nodes(self) -> int:
        """A node count of COUNTS; 50 or 300 more often, so that most
        layouts reach a Gram."""
        return self.pick(COUNTS) if self.chance(0.4) else self.pick((50, 300))

    def shape_doc(self, union: bool = True) -> dict:
        """A shape document of any kind; a union has two parts of other kinds."""
        kinds = ("ball", "ball-complement", "sphere", "half-space", "cloud")
        kind = self.pick(kinds + ("union",) if union else kinds)
        c = self.center()
        if kind == "half-space":
            normal = self.direction() if self.chance(0.9) else np.zeros(3)
            return {"shape": kind, "normal": normal.tolist(), "offset": float(c @ normal)}
        if kind == "cloud":
            points = c + self.radius() * self.rng.normal(size=(self.nodes(), 3))
            return {"shape": kind, "points": points.tolist()}
        if kind == "union":
            return {"shape": kind, "parts": [self.shape_doc(union=False) for _ in range(2)]}
        return {"shape": kind, "center": c.tolist(), "radius": self.radius()}

    def point(self, doc: dict, nodes=None) -> np.ndarray:
        """A point near the center of the shape of ``doc`` or off it by a
        multiple of its radius, or a node."""
        if nodes is not None and len(nodes) and self.chance(0.2):
            return nodes[int(self.rng.integers(len(nodes)))]
        if doc["shape"] == "union":
            return self.point(self.pick(doc["parts"]))
        if doc["shape"] == "half-space":
            center = doc["offset"] * np.array(doc["normal"])
        else:
            center = np.array(doc["points"][0] if doc["shape"] == "cloud" and doc["points"]
                              else doc.get("center", np.zeros(3)))
        scale = doc.get("radius", 1.0) * self.pick((0.0, 0.5, 1.0, 2.0, 10.0))
        return center + scale * self.direction()

    def measure(self, doc: dict, nodes=None) -> rl.DiscreteMeasure:
        """Zero to three atoms at ``point``s, with positive weights, or
        signed with one negative weight."""
        k = self.pick((0, 1, 1, 3))
        points = np.reshape([self.point(doc, nodes) for _ in range(k)], (k, 3))
        weights = self.rng.random(k) + 0.1
        signed = self.chance(0.1)
        if signed and k:
            weights[0] = -weights[0]
        return rl.DiscreteMeasure(points, weights, signed=signed)


def _shape(doc: dict) -> rl.Shape:
    if doc["shape"] == "union":
        return rl.UnionShape([_shape(part) for part in doc["parts"]])
    cls = SHAPES[doc["shape"]]
    return cls(*(doc[f] for f in cls.fields))


def _region(d, spec):
    """A drawn region and the document of its shape."""
    doc = d.shape_doc()
    return rl.build_region(_shape(doc), d.nodes(), spec), doc


def _build_region(d, tmp_path, capsys):
    rl.build_region(_shape(d.shape_doc()), d.count(d.nodes()), d.spec())


def _sweep(d, tmp_path, capsys):
    spec = d.spec()
    region, doc = _region(d, spec)
    rl.sweep(spec, d.measure(doc, region.nodes), region, tol=d.tol(1e-10),
             tol_dom=d.tol(0.02), n_probes=d.count(10), probe_seed=d.count(1))


def _sweep_many(d, tmp_path, capsys):
    spec = d.spec()
    region, doc = _region(d, spec)
    sources = [d.measure(doc, region.nodes) for _ in range(d.pick((0, 1, 3)))]
    rl.sweep_many(spec, sources, region, tol=d.tol(1e-10))


def _riesz_equilibrium(d, tmp_path, capsys):
    spec = d.spec()
    rl.riesz_equilibrium(spec, _region(d, spec)[0], tol=d.tol(1e-10), n_probes=d.count(10),
                         probe_seed=d.count(1))


def _green_kernel(d, spec):
    region, doc = _region(d, spec)
    return rl.GreenKernel(spec, region, tol=d.tol(1e-10)), doc


def _green_eval(d, tmp_path, capsys):
    spec = d.spec()
    gk, doc = _green_kernel(d, spec)
    nodes = gk.region.nodes
    rl.green_eval(gk, d.point(doc, nodes), d.point(doc, nodes))


def _green_equilibrium(d, tmp_path, capsys):
    spec = d.spec()
    gk, _ = _green_kernel(d, spec)
    rl.green_equilibrium(gk, _region(d, spec)[0])


def _green_sweep(d, tmp_path, capsys):
    spec = d.spec()
    gk, doc = _green_kernel(d, spec)
    f_region, f_doc = _region(d, spec)
    source = d.measure(d.pick((doc, f_doc)), d.pick((gk.region.nodes, f_region.nodes)))
    rl.green_sweep(gk, source, f_region)


def _mass_loss_test(d, tmp_path, capsys):
    spec = d.spec()
    region, doc = _region(d, spec)
    rl.mass_loss_test(spec, d.measure(doc, region.nodes), region, loss_margin=d.tol(0.02),
                      tol=d.tol(1e-10))


def _shell_options(d) -> dict:
    """Ratio, shell count and budget of a shell test, small enough to run fast."""
    return {"ratio_q": d.pick((0.0, 1.0, float("nan"))) if d.chance(0.2) else 0.5,
            "k_max": d.count(d.pick((1, 3))), "shell_budget": d.count(d.pick((0, 20, 60)))}


def _wiener_report(d, tmp_path, capsys):
    doc = d.shape_doc()
    rl.wiener_report(d.spec(), _shape(doc), d.point(doc), **_shell_options(d))


def _thin_at_infinity_report(d, tmp_path, capsys):
    doc = d.shape_doc()
    rl.thin_at_infinity_report(d.spec(), _shape(doc), d.point(doc), **_shell_options(d))


def _kelvin_transform(d, tmp_path, capsys):
    doc = d.shape_doc()
    rl.kelvin_transform(d.point(doc), d.spec(), d.measure(doc))


def _region_doc(d) -> dict:
    doc = d.shape_doc()
    if doc["shape"] != "cloud":
        doc["n"] = d.count(d.nodes())
    return doc


def _measure_doc(d, doc: dict) -> dict:
    mu = d.measure(doc)
    return {"points": mu.points.tolist(), "weights": mu.weights.tolist(), "signed": mu.signed}


def _scenario(d) -> dict:
    """A scenario document of a drawn command whose fields are drawn like
    the library's arguments; a bad count or tolerance reaches the file."""
    command = d.pick(("sweep", "equilibrium", "green-eval", "green-equilibrium",
                      "green-sweep", "wiener", "mass-loss", "kelvin-check"))
    scen = {"schema": 1, "name": "fuzz", "command": command,
            "kernel": {"alpha": d.pick(ALPHAS), "dim": 3}}
    if command == "kelvin-check":
        doc = d.shape_doc()
        scen.update(center=d.point(doc).tolist(), measure=_measure_doc(d, doc),
                    samples={"n": d.count(5), "seed": d.count(1)})
    elif command == "wiener":
        doc = d.shape_doc()
        scen.update(region=doc, point=d.point(doc).tolist(), at_infinity=d.chance(0.5),
                    **_shell_options(d))
    else:
        scen["region"] = doc = _region_doc(d)
        scen["tol"] = d.tol(1e-10)
    if command in ("green-equilibrium", "green-sweep"):
        scen["compact"] = _region_doc(d)
    if command in ("sweep", "green-sweep", "mass-loss"):
        scen["source"] = _measure_doc(d, doc)
    if command == "green-eval":
        scen.update(x=d.point(doc).tolist(), y=d.point(doc).tolist())
    if command in ("sweep", "equilibrium"):
        scen["probes"] = {"n": d.count(10), "seed": d.count(1)}
    if command == "mass-loss":
        scen["loss_margin"] = d.tol(0.02)
    return scen


def _cli_main(d, tmp_path, capsys):
    """Exit 0 or 2 on a scenario that runs, and 1 with one ``error:`` line
    on one that does not; any other exception escapes ``main``."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(_scenario(d), default=int))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "fuzz")])
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 2)


ENTRY_POINTS = (
    _build_region, _sweep, _sweep_many, _riesz_equilibrium, _green_eval, _green_equilibrium,
    _green_sweep, _mass_loss_test, _wiener_report, _thin_at_infinity_report,
    _kelvin_transform, _cli_main,
)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_a_call_returns_or_raises_a_rieszlab_error(trial, tmp_path, capsys):
    d = Draw(trial)
    try:
        d.pick(ENTRY_POINTS)(d, tmp_path, capsys)
    except rl.RieszLabError:
        pass
