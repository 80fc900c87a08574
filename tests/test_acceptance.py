"""End-to-end acceptance checks for the whole package.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers (run with -s to
see the lines for passing tests).  The random draws are all seeded, so
failures reproduce exactly.
"""
import json

import numpy as np

import rieszlab as rl
from rieszlab import (
    Ball,
    BallComplement,
    DiscreteMeasure,
    GreenKernel,
    HalfSpace,
    Inversion,
    SphereShell,
    cross_energy,
    dirac,
    green_eval,
    green_gram,
    green_equilibrium,
    kelvin_transform,
    mass_loss_test,
    potential_at,
    riesz_equilibrium,
    sweep,
    sweep_dirac_by_inversion,
    sweep_many,
    verify_energy_decomposition,
    verify_green_minimality,
    verify_integral_representation,
    verify_potential_covariance,
    verify_symmetry,
    verify_transitivity,
)
from rieszlab.cli import main

ORIGIN = np.zeros(3)
E1 = np.array([1.0, 0.0, 0.0])


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line = f"{line}  [{detail}]"
    print(line)
    assert ok, line


def random_directions(rng, k):
    d = rng.normal(size=(k, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_01_inversion_identities(spec):
    """Involution, weight law, potential covariance, bilinear energy
    invariance, and the mass-potential duality, each to 1e-12."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        pts = rng.normal(size=(k, 3))
        w = rng.uniform(0.2, 2.0, size=k)
        signed = bool(rng.random() < 0.5)
        if signed:
            w = w * rng.choice([-1.0, 1.0], size=k)
        mu = DiscreteMeasure(pts, w, signed=signed)
        while True:
            pole = rng.normal(scale=2.0, size=3)
            if np.linalg.norm(pts - pole, axis=1).min() > 0.3:
                break
        inv = Inversion(pole)
        star = kelvin_transform(inv, spec, mu)

        back = kelvin_transform(inv, spec, star)
        g_inv = max(
            float(np.abs(back.points - mu.points).max()),
            float(np.abs(back.weights - mu.weights).max() / np.abs(w).max()),
        )

        r = np.linalg.norm(pts - pole, axis=1)
        g_wl = float(
            np.abs(star.weights - w * r**spec.exponent).max() / np.abs(w).max()
        )

        samples = []
        while len(samples) < 10:
            x = rng.normal(scale=1.5, size=3)
            d_atoms = np.linalg.norm(pts - x, axis=1).min()
            if d_atoms > 0.2 and np.linalg.norm(x - pole) > 0.2:
                samples.append(x)
        g_cov = verify_potential_covariance(inv, spec, mu, np.array(samples))

        nu_pts = pts + rng.normal(scale=0.7, size=(k, 3))
        if np.linalg.norm(nu_pts - pole, axis=1).min() < 1e-3:
            continue
        nu = DiscreteMeasure(nu_pts, rng.uniform(0.2, 2.0, size=k))
        nu_star = kelvin_transform(inv, spec, nu)
        e = cross_energy(spec, mu, nu)
        e_star = cross_energy(spec, star, nu_star)
        g_en = abs(e - e_star) / max(abs(e), abs(e_star), 1e-9)

        pot_pole = float(potential_at(spec, mu, pole[None, :])[0])
        g_mass = abs(star.total_mass - pot_pole) / max(abs(pot_pole), 1e-9)

        worst = max(worst, g_inv, g_wl, g_cov, g_en, g_mass)
    report(
        "inversion-identities",
        worst <= 1e-12,
        f"worst gap {worst:.2e} over 100 random measures, tol 1e-12",
    )


def test_02_point_charge_onto_ball_complement(
    spec, complement500, complement2000, complement8000
):
    """Sweeping a unit point charge at the origin onto the closed exterior
    of the unit ball keeps the mass and reproduces 1/|x| outside, with the
    potential error shrinking as the discretization grows."""
    probes = np.array([[1.5, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    exact = 1.0 / np.linalg.norm(probes, axis=1)
    mass_err = {}
    pot_err = {}
    for n, region in ((500, complement500), (2000, complement2000), (8000, complement8000)):
        res = sweep_many(spec, [dirac(ORIGIN)], region)[0]
        mass_err[n] = abs(res.swept.total_mass - 1.0)
        vals = potential_at(spec, res.swept, probes)
        pot_err[n] = float(np.max(np.abs(vals - exact) / exact))
    ok = (
        mass_err[2000] <= 0.01
        and pot_err[2000] <= 0.01
        and pot_err[500] > pot_err[2000] > pot_err[8000]
    )
    report(
        "point-charge-onto-complement",
        ok,
        f"mass err {mass_err[2000]:.2e} (tol 1e-2), potential err "
        f"{pot_err[500]:.2e} > {pot_err[2000]:.2e} > {pot_err[8000]:.2e}",
    )


def test_03_exterior_charge_onto_ball(spec, ball2000):
    """A unit charge at distance 2 sweeps onto the unit ball with mass 1/2,
    and the QP route agrees with the analytic inversion route."""
    src = 2.0 * E1
    res = sweep_many(spec, [dirac(src)], ball2000)[0]
    mass = res.swept.total_mass
    image = sweep_dirac_by_inversion(spec, src, 1.0, ball2000)
    probes = np.array([[3.0, 0, 0], [0.0, 2.5, 0], [1.8, 1.2, 0]])
    p_qp = potential_at(spec, res.swept, probes)
    p_inv = potential_at(spec, image, probes)
    pot_gap = float(np.max(np.abs(p_qp - p_inv) / np.abs(p_qp)))
    mass_gap = abs(image.total_mass - mass) / mass
    ok = abs(mass - 0.5) <= 0.005 and mass_gap <= 0.01 and pot_gap <= 0.01
    report(
        "exterior-charge-onto-ball",
        ok,
        f"mass {mass:.5f} (0.5 +/- 1%), inversion mass gap {mass_gap:.2e}, "
        f"potential gap {pot_gap:.2e}",
    )


def test_04_mass_and_energy_never_grow(spec):
    """Fifty randomized sweeps across the shape catalog: swept mass and
    swept energy stay below the source values up to 1e-8 relative slack."""
    rng = np.random.default_rng(404)
    worst_mass = -np.inf
    worst_energy = -np.inf
    count = 0
    while count < 50:
        kind = count % 4
        c = rng.normal(scale=0.5, size=3)
        radius = rng.uniform(0.5, 1.5)
        if kind == 0:
            shape = Ball(c, radius)
            radii = rng.uniform(1.3, 3.0, size=5)
        elif kind == 1:
            shape = BallComplement(c, radius)
            radii = rng.uniform(0.1, 0.7, size=5) * radius
        elif kind == 2:
            shape = SphereShell(c, radius)
            inner = rng.random(5) < 0.5
            radii = np.where(
                inner,
                rng.uniform(0.2, 0.7, size=5),
                rng.uniform(1.3, 2.5, size=5),
            ) * radius
        else:
            normal = random_directions(rng, 1)[0]
            offset = rng.uniform(-0.5, 0.5)
            shape = HalfSpace(normal, offset)
        k = int(rng.integers(1, 6))
        if kind == 3:
            depth = rng.uniform(0.3, 2.0, size=k)
            span = rng.normal(scale=1.5, size=(k, 3))
            span -= np.outer(span @ shape.normal, shape.normal)
            pts = shape.offset * shape.normal + span - depth[:, None] * shape.normal
        else:
            if kind == 1:
                pts = c + random_directions(rng, k) * radii[:k, None] * radius
            else:
                pts = c + random_directions(rng, k) * radii[:k, None]
        if bool(shape.contains(pts).any()):
            continue
        mu = DiscreteMeasure(pts, rng.uniform(0.2, 2.0, size=k))
        region = rl.build_region(shape, 400, spec)
        res = sweep(spec, mu, region, probe_seed=int(rng.integers(1 << 30)))
        ch = res.checks
        worst_mass = max(
            worst_mass, (ch.mass_out - ch.mass_in) / max(1.0, ch.mass_in)
        )
        worst_energy = max(
            worst_energy, (ch.energy_out - ch.energy_in) / max(1.0, ch.energy_in)
        )
        count += 1
    ok = worst_mass <= 1e-8 and worst_energy <= 1e-8
    report(
        "mass-and-energy-monotone",
        ok,
        f"50 sweeps, worst mass excess {worst_mass:.2e}, "
        f"worst energy excess {worst_energy:.2e}, slack 1e-8",
    )


def test_05_sweep_reciprocity(spec, ball500, ball2000, ball8000):
    """The mutual energy of a swept measure with a second source does not
    depend on which of the two was swept.  Fifty random pairs: every gap at
    n=2000 is below 2%, and the median gap does not grow under refinement
    (machine-level medians mean the gap sits at the rounding floor)."""
    rng = np.random.default_rng(505)

    def exterior_dirac():
        return dirac(
            random_directions(rng, 1)[0] * rng.uniform(1.3, 3.0),
            rng.uniform(0.5, 2.0),
        )

    def exterior_measure():
        pts = random_directions(rng, 10) * rng.uniform(1.2, 3.0, size=(10, 1))
        return DiscreteMeasure(pts, rng.uniform(0.1, 1.0, size=10))

    pairs = [(exterior_dirac(), exterior_dirac()) for _ in range(25)]
    pairs += [(exterior_measure(), exterior_measure()) for _ in range(25)]

    gaps = {}
    for n, region in ((500, ball500), (2000, ball2000), (8000, ball8000)):
        gaps[n] = np.array(
            [verify_symmetry(spec, mu, nu, region)["rel_gap"] for mu, nu in pairs]
        )
    max_2000 = float(gaps[2000].max())
    med = {n: float(np.median(g)) for n, g in gaps.items()}
    converged = med[8000] <= 1e-12
    ok = max_2000 <= 0.02 and (converged or med[500] >= 2.0 * med[8000])
    report(
        "sweep-reciprocity",
        ok,
        f"max gap at n=2000 {max_2000:.2e} (tol 2e-2); medians "
        f"{med[500]:.2e} / {med[2000]:.2e} / {med[8000]:.2e} at n=500/2000/8000",
    )


def test_06_ball_equilibrium(spec, ball2000):
    """Unit-ball equilibrium: capacity 1 within 1%, potential within 2% of
    the capacity level on the charged nodes and from below at 100 probes."""
    eq = riesz_equilibrium(spec, ball2000, n_probes=100)
    ok = (
        abs(eq.capacity - 1.0) <= 0.01
        and 0.98 <= eq.node_potential_min
        and eq.node_potential_max <= 1.02
        and eq.probe_potential_max <= 1.02
    )
    report(
        "ball-equilibrium",
        ok,
        f"capacity {eq.capacity:.5f} (1 +/- 1%), node potential "
        f"[{eq.node_potential_min:.4f}, {eq.node_potential_max:.4f}], "
        f"probe max {eq.probe_potential_max:.4f} (<= 1.02)",
    )


def test_07_green_kernel_ball(spec, gk2000):
    """Green kernel of the unit ball: closed form at the center within 2%,
    symmetric within 2%, and positive definite on random interior nodes."""
    rng = np.random.default_rng(707)
    val_err = 0.0
    for r in (0.25, 0.5, 0.75):
        exact = 1.0 / r - 1.0
        val = green_eval(gk2000, r * E1, ORIGIN)
        val_err = max(val_err, abs(val - exact) / exact)

    sym_gap = 0.0
    for _ in range(20):
        x, y = random_directions(rng, 2) * rng.uniform(0.1, 0.85, size=(2, 1))
        a = green_eval(gk2000, x, y)
        b = green_eval(gk2000, y, x)
        sym_gap = max(sym_gap, abs(a - b) / max(a, b))

    nodes = random_directions(rng, 200) * rng.uniform(0.05, 0.85, size=(200, 1))
    eig_min = float(np.linalg.eigvalsh(green_gram(gk2000, nodes).entries).min())

    ok = val_err <= 0.02 and sym_gap <= 0.02 and eig_min > 0.0
    report(
        "green-kernel-ball",
        ok,
        f"center-value err {val_err:.2e} (tol 2e-2), symmetry gap "
        f"{sym_gap:.2e} (tol 2e-2), min eigenvalue {eig_min:.3e} (> 0)",
    )


def test_08_green_energy_decomposition(spec, gk2000):
    """Free energy splits into Green energy plus swept energy, within 2%
    for 20 random interior measures."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(4, 13))
        pts = random_directions(rng, k) * rng.uniform(0.05, 0.8, size=(k, 1))
        nu = DiscreteMeasure(pts, rng.uniform(0.2, 1.5, size=k))
        worst = max(worst, verify_energy_decomposition(gk2000, nu)["rel_gap"])
    report(
        "green-energy-decomposition",
        worst <= 0.02,
        f"worst relative gap {worst:.2e} over 20 measures, tol 2e-2",
    )


def test_09_green_equilibrium(spec, gk2000):
    """Green equilibrium of the radius-1/2 sphere inside the unit ball:
    capacity 1 within 2%, unit potential on the set within 2%, and no
    sampled feasible competitor beats its energy."""
    f = rl.sphere_region(ORIGIN, 0.5, 400, spec)
    eq = green_equilibrium(gk2000, f)
    mini = verify_green_minimality(gk2000, f, eq, n_competitors=20)
    ok = (
        abs(eq.capacity - 1.0) <= 0.02
        and 0.98 <= eq.node_potential_min
        and eq.node_potential_max <= 1.02
        and mini["ok"]
    )
    report(
        "green-equilibrium",
        ok,
        f"capacity {eq.capacity:.5f} (1 +/- 2%), node potential "
        f"[{eq.node_potential_min:.4f}, {eq.node_potential_max:.4f}], "
        f"competitor energy ratio {mini['min_energy_ratio']:.6f} (>= 1)",
    )


def test_10_mass_loss_dichotomy(spec, ball500, ball2000, complement500, complement2000):
    """Sweeping onto a bounded set loses a definite mass fraction; sweeping
    onto a ball complement preserves mass.  Both verdicts are stable under
    changing the discretization."""
    loss = {}
    keep = {}
    for n, b_reg, c_reg in (
        (500, ball500, complement500),
        (2000, ball2000, complement2000),
    ):
        loss[n] = mass_loss_test(spec, dirac(2.0 * E1), b_reg)
        keep[n] = mass_loss_test(spec, dirac(ORIGIN), c_reg)
    ok = all(loss[n]["strict_loss"] for n in loss)
    ok = ok and all(not keep[n]["strict_loss"] for n in keep)
    ok = ok and abs(loss[2000]["mass_out"] - 0.5) <= 0.005
    ok = ok and abs(keep[2000]["mass_out"] - 1.0) <= 0.01
    report(
        "mass-loss-dichotomy",
        ok,
        f"ball keeps {loss[2000]['mass_out']:.5f} of 1 (strict loss), "
        f"complement keeps {keep[2000]['mass_out']:.5f} (1 +/- 1%), "
        f"verdicts agree at n=500 and n=2000",
    )


def test_11_transitivity_and_representation(spec, ball2000):
    """Sweeping in stages through a nested set matches the direct sweep,
    and a sweep equals the weighted combination of its per-atom sweeps."""
    f = rl.sphere_region(ORIGIN, 0.5, 400, spec)
    trans = verify_transitivity(spec, dirac(2.0 * E1), ball2000, f)

    rng = np.random.default_rng(1111)
    pts = random_directions(rng, 5) * rng.uniform(1.5, 2.5, size=(5, 1))
    mu = DiscreteMeasure(pts, rng.uniform(0.3, 1.5, size=5))
    rep = verify_integral_representation(spec, mu, ball2000)

    ok = (
        trans["max_rel_gap"] <= 0.02
        and trans["mass_rel_gap"] <= 0.02
        and rep["max_rel_gap"] <= 0.02
        and rep["mass_rel_gap"] <= 0.02
    )
    report(
        "transitivity-and-representation",
        ok,
        f"staged-vs-direct gap {trans['max_rel_gap']:.2e}, "
        f"atomwise gap {rep['max_rel_gap']:.2e}, tol 2e-2",
    )


def test_12_verify_all_is_deterministic(tmp_path):
    """Two runs of the full verification battery produce byte-identical
    result files, and every battery check passes."""
    doc = {
        "schema": 1,
        "name": "acceptance-battery",
        "command": "verify-all",
        "kernel": {"alpha": 2.0, "dim": 3},
        "n": 500,
    }
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(doc))
    rc1 = main(["run", str(path), "--out", str(tmp_path / "one")])
    rc2 = main(["run", str(path), "--out", str(tmp_path / "two")])
    b1 = (tmp_path / "one.result.json").read_bytes()
    b2 = (tmp_path / "two.result.json").read_bytes()
    payload = json.loads(b1)
    ok = rc1 == 0 and rc2 == 0 and b1 == b2 and payload["all_passed"] is True
    report(
        "verify-all-deterministic",
        ok,
        f"exit codes {rc1}/{rc2}, identical bytes {b1 == b2}, "
        f"all {len(payload['checks'])} checks passed",
    )
