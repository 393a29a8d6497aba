"""Seeded scene generator for the benchmark workloads.

Every scene is written as a JSON file into a work directory and paired
with its construction truth: the exit code the CLI must return, the
checks that must fail (negative controls), and closed-form oracles the
report must match.  The same seed always writes the same files.

Families (coefficients drawn from the seed, printed with four decimals
so that the oracles below use exactly the numbers the program parses):

* null-Kaehler members: a, c linear in (x, y) and f = 1 + r x z, as in
  the acceptance tests' structure family;
* the "exp" surface: spray a(lam) = k q + k lam with the geodesic
  congruence beta = C exp(k x) - q, so b(lam) = -a'(lam)/3 = -k/3;
* the "radial" surface: flat spray with beta = (y - y0)/(x - x0);
* divisor root congruences of x b^2 - y b + c = 0, optionally gauge
  shifted and over a projectively changed flat structure;
* ward transport with rho = df for a quadratic f.

Negative controls are perturbed like the acceptance tests' controls and
come in pairs (eps, eps/10) so the checker can ask for linear scaling.
"""

import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("certify4d", "surface", "cli-sweep")

# Sample counts of the in-process workloads, one per family member.  At
# 128 samples a 4-D command takes 1-2 s, too few commands per run for a
# tail percentile.  Mixing counts spreads each command's time, so the
# percentiles do not sit in a gap between two commands' times.
LADDER = (24, 40, 32)
SAMPLES = 32

BOX4 = {"x": [-1, 1], "y": [-1, 1], "t": [-1, 1], "z": [0.4, 1.4]}
BOX_SURFACE = {"x": [0.5, 1.5], "y": [-1, 1]}
BOX_DIVISOR = {"x": [-1.5, -0.5], "y": [-1, 1]}
PROBE = (1.0, 0.25)

# The natural commands of the checked-in scenes.
CHECKED_IN = (
    ("flat", ("verify-lax", "verify-pair", "certify-selfdual", "curvature",
              "killing", "frobenius", "congruence", "gauge-report")),
    ("nullkahler_hk", ("certify-selfdual", "curvature", "killing")),
    ("nullkahler_random", ("build-nullkahler",)),
    ("twistfree", ("build-twistfree",)),
    ("dw_twist", ("build-dw",)),
    ("burgers", ("congruence", "projective-field")),
    ("divisor2_roots", ("divisor2",)),
    ("divisor2_trivial", ("divisor2",)),
    ("projective_field", ("projective-field",)),
    ("ward", ("ward",)),
)
BATCH_SCENES = ("flat", "nullkahler_hk", "burgers", "divisor2_roots", "ward")


def num(v):
    """Four-decimal text of v and the float the program will parse."""
    text = f"{v:.4f}"
    return text, float(text)


def _eps_pair(rng):
    eps = float(f"{rng.uniform(1.0, 9.0):.3f}e-4")
    return (eps, eps / 10.0)


class Job:
    """One CLI invocation and what its report must show.

    ``expect`` holds: ``exit`` (0 or 1), ``failing`` (check names that must
    fail), ``linear`` (where to read the value that must scale with eps and
    the pair key), and ``oracles`` (closed-form values, see check.py)."""

    def __init__(self, command, scene, family, expect, samples=SAMPLES,
                 seed=0):
        self.command = command
        self.scene = str(scene)
        self.family = family
        self.expect = expect
        self.samples = samples
        self.seed = seed

    def argv(self, out):
        argv = [self.command, self.scene]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + ["--out", str(out)]


def _expect(exit=0, failing=(), linear=None, **oracles):
    return {"exit": exit, "failing": list(failing), "linear": linear,
            "oracles": oracles}


def _linear(key, eps, where):
    """`where` is ("check", name) or ("fitted", dotted.path)."""
    return {"key": key, "eps": eps, "where": list(where)}


class _Writer:
    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def scene(self, name, scene):
        scene = dict(scene, name=name)
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(scene, indent=1, sort_keys=True))
        return path


def _sampling(box, count=SAMPLES, exclusions=None):
    out = {"box": box, "count": count, "seed": 0}
    if exclusions:
        out["exclusions"] = exclusions
    return out


# -- certify4d ---------------------------------------------------------------


def _nk_member(rng):
    r = [num(rng.uniform(-0.4, 0.4)) for _ in range(5)]
    a = f"{r[0][0]}*x + {r[1][0]}*y"
    c = f"{r[2][0]}*x + {r[3][0]}*y"
    f = f"1 + {r[4][0]}*x*z"
    return a, c, f


def _nk_pair_scene(a, c, f, alpha0_extra="", field_extra="0"):
    return {
        "coords": ["x", "y", "t", "z"],
        "projective": {"gamma": {"100": a}},
        "pair": {"fiber": ["t", "z"],
                 "alpha0": [f"({a})*z{alpha0_extra}", "0"],
                 "alpha1": [c, "0"],
                 "phi0": ["0", "1"], "phi1": ["1", "0"]},
        "factor": f,
        "fields": {"K": ["0", "0", "1", field_extra]},
        "sampling": _sampling(BOX4),
        "tolerances": {"weyl_minus": 1e-8, "lax": 1e-10, "killing": 1e-12},
    }


def _nk_build_scene(a, c, f):
    return {
        "coords": ["x", "y", "t", "z"],
        "projective": {"gamma": {"100": a}},
        "build": {"a": a, "c": c, "f": f},
        "sampling": _sampling(BOX4),
        "tolerances": {"domega": 1e-12, "compat": 1e-10, "killing": 1e-12,
                       "weyl_minus": 1e-8},
    }


def certify4d_jobs(seed, workdir, members=3):
    rng = random.Random(f"certify4d-{seed}")
    w = _Writer(workdir)
    positives, negatives = [], []
    for i in range(members):
        a, c, f = _nk_member(rng)
        pair = w.scene(f"nk{i}", _nk_pair_scene(a, c, f))
        build = w.scene(f"nk{i}-build", _nk_build_scene(a, c, f))
        n = LADDER[i % len(LADDER)]
        positives += [
            Job("certify-selfdual", pair, "nk", _expect(), n),
            Job("curvature", pair, "nk", _expect(weyl_minus_below=1e-8), n),
            Job("killing", pair, "nk", _expect(null_field="K"), n),
            Job("build-nullkahler", build, "nk-build", _expect(), n),
        ]
    a, c, f = _nk_member(rng)
    for j, eps in enumerate(_eps_pair(rng)):
        bent = w.scene(f"nk-bent{j}",
                       _nk_pair_scene(a, c, f,
                                      alpha0_extra=f" + {eps!r}*z^2"))
        tilted = w.scene(f"nk-tilted{j}",
                         _nk_pair_scene(a, c, f, field_extra=f"{eps!r}*x"))
        timed = w.scene(f"nk-timed{j}",
                        _nk_build_scene(a, c, f"{f} + {eps!r}*t"))
        negatives += [
            Job("certify-selfdual", bent, "nk",
                _expect(1, ["lax_residual", "weyl_minus"],
                        _linear("certify", eps, ("check", "weyl_minus")))),
            Job("curvature", bent, "nk",
                _expect(0, [], _linear("curvature", eps,
                                       ("fitted", "weyl_minus")),
                        weyl_minus_above=1e-8)),
            Job("killing", tilted, "nk",
                _expect(1, ["conformal_killing[K]"],
                        _linear("killing", eps,
                                ("check", "conformal_killing[K]")))),
            Job("build-nullkahler", timed, "nk-build",
                _expect(1, ["killing", "domega"],
                        _linear("build", eps, ("check", "killing")))),
        ]
    return positives + negatives


# -- surface -----------------------------------------------------------------


def _exp_surface(rng):
    """Spray (k q, k, 0, 0) and its congruence beta = C exp(k x) - q."""
    k = num(rng.choice((-1, 1)) * rng.uniform(0.3, 1.0))
    q = num(rng.uniform(-0.5, 0.5))
    C = num(rng.uniform(0.5, 1.5))
    return {
        "kind": "exp", "k": k[1], "q": q[1],
        "spray": [f"{k[0]}*{q[0]}", k[0], "0", "0"],
        "beta": f"{C[0]}*exp({k[0]}*x) - {q[0]}",
        "E": f"{k[0]}*z",            # (a1 - beta_y) z
        "H": "1", "G": "z",          # H_x + E H_z = 0 and G_z = H
        "fields": {"V": [num(rng.uniform(-1, 1))[0],
                         num(rng.uniform(-1, 1))[0]]},
        "multiplier": -k[1],           # beta_y - a1 at every point
    }


def _radial_surface(rng):
    """Flat spray and the pencil of lines through (x0, y0)."""
    x0 = num(rng.uniform(-2.5, -0.5))
    y0 = num(rng.uniform(-1.0, 1.0))
    c = [num(rng.uniform(-1, 1)) for _ in range(8)]
    s = [ci[0] for ci in c]
    vx = (f"{s[0]} + {s[1]}*x + {s[2]}*y + x*({s[6]}*x + {s[7]}*y)")
    vy = (f"{s[3]} + {s[4]}*x + {s[5]}*y + y*({s[6]}*x + {s[7]}*y)")
    return {
        "kind": "radial", "k": 0.0, "q": 0.0,
        "spray": ["0", "0", "0", "0"],
        "beta": f"(y - {y0[0]})/(x - {x0[0]})",
        "E": f"-z/(x - {x0[0]})",
        "H": f"(x - {x0[0]})*z",
        "G": f"(x - {x0[0]})*z^2/2",
        "fields": {"V": [vx, vy]},
        "multiplier": 1.0 / (PROBE[0] - x0[1]),   # beta_y at the probe
    }


def _tf_pair(S):
    """The twist-free normal form of S's congruence, by the formula of
    twist_free_normal_form with a2 = a3 = 0."""
    if S["kind"] == "exp":
        q0 = f"2*{S['spray'][1]}/3*z"
    else:
        q0 = S["E"]
    return {"fiber": ["z"], "alpha0": [q0], "alpha1": ["0"],
            "phi0": [f"0 - ({S['beta']})"], "phi1": ["1"]}


def _dw_pair(S, twist, bump=""):
    """The quadrature pair of dw_quadrature_build with a2 = a3 = 0."""
    return {"fiber": ["t", "z"],
            "alpha0": [f"0{bump}", S["E"]], "alpha1": ["0", "0"],
            "phi0": ["1", f"0 - ({S['beta']}) - {twist}*z"],
            "phi1": ["0", "1"],
            "c0": f"{S['spray'][1]}/3", "c1": "0"}


def _dw_flags(twist):
    """Gauge flags of _dw_pair: alpha0 has divergence E/z != 0, phi0 has
    the constant divergence -twist, and nothing depends on t."""
    return {"sdiff2": False, "hdiff2": True, "phi_sdiff": twist == "0",
            "o_times_diff1": True, "aff1_translational": twist == "0"}


# Gauge flags of _tf_pair: alpha0 = e z with e != 0, and one fiber
# coordinate, so nothing can depend on t.
TF_FLAGS = {"sdiff2": False, "hdiff2": True, "phi_sdiff": True,
            "o_times_diff1": True, "aff1_translational": True}


def _root_divisor(rng, bend=None):
    c = num(rng.uniform(0.6, 1.8))[0]
    a0, a1 = (num(rng.uniform(-0.3, 0.3))[0] for _ in range(2))
    g0, g1 = (num(rng.uniform(-0.2, 0.2))[0] for _ in range(2))
    root = f"sqrt(y^2 - 4*{c}*x)"
    entries = []
    for sign in ("+", "-"):
        scale = f"exp({a0}*x + {a1}*y)"
        rho0 = f"(1 {sign} y/{root})/(2*x) - {a0}"
        if bend and sign == "+":
            rho0 += f" + {bend!r}*y"
        entries.append({"phi": [scale, f"{scale}*(y {sign} {root})/(2*x)"],
                        "rho": [rho0, f"0 - {a1}"]})
    return {
        "coords": ["x", "y"],
        # the flat structure shifted by the 1-form (g0 y, g1 x)
        "projective": {"gamma": {"000": f"2*{g0}*y", "001": f"{g1}*x",
                                 "101": f"{g0}*y", "111": f"2*{g1}*x"}},
        "divisor2": entries,
        "sampling": _sampling(BOX_DIVISOR),
        "tolerances": {"divisor2": 1e-8},
    }


def _ward(rng, S):
    p, qq, r = (num(rng.uniform(-0.5, 0.5)) for _ in range(3))
    start = [num(rng.uniform(0.6, 1.0))[1], num(rng.uniform(-0.5, 0.5))[1],
             num(rng.uniform(-0.8, 0.8))[1]]
    # a whole number of steps, so the step-halving check integrates the
    # same length twice
    length = rng.randrange(50, 101) / 100.0
    # The slope solves lam' = k (lam + q).  Keep it inside the chart
    # |lam| <= 1: after a chart switch the two step sizes switch at
    # different points and stop agreeing to O(h^4).
    k, q = S["k"], S["q"]
    if abs((start[2] + q) * math.exp(k * length) - q) > 0.9:
        start[2] = -q
    scene = {
        "coords": ["x", "y"],
        "projective": {"spray": S["spray"]},
        "ward": {"rho": [f"{p[0]}*y + 2*{qq[0]}*x", f"{p[0]}*x + {r[0]}"],
                 "start": start, "length": length, "step": 0.01},
        "sampling": _sampling(BOX_SURFACE),
        # RK4 at h = 0.01 against h/2 differs by O(h^4)
        "tolerances": {"ward": 1e-8},
    }
    return scene, {"f": [p[1], qq[1], r[1]], "start": start[:2]}


def _surface_scene(S, fields=None, beta=None):
    return {
        "coords": ["x", "y"],
        "projective": {"spray": S["spray"]},
        "congruences": {"beta": beta or S["beta"]},
        "surface_fields": fields or S["fields"],
        "probe": list(PROBE),
        "sampling": _sampling(BOX_SURFACE),
        "tolerances": {"congruence": 1e-10, "projective_field": 1e-10},
    }


def surface_jobs(seed, workdir):
    rng = random.Random(f"surface-{seed}")
    w = _Writer(workdir)
    jobs = []
    for i, S in enumerate((_exp_surface(rng), _radial_surface(rng))):
        twist = "0" if i == 0 else num(rng.uniform(0.2, 0.8))[0]
        b_tf = [-S["k"] / 3.0, 0.0, 0.0]
        box3 = dict(BOX_SURFACE, z=[-1, 1])
        box4 = dict(BOX_SURFACE, t=[-1, 1], z=[0.4, 1.4])
        tf = w.scene(f"tf{i}", {
            "coords": ["x", "y", "z"], "projective": {"spray": S["spray"]},
            "build": {"beta": S["beta"]}, "sampling": _sampling(box3),
            "tolerances": {"lax": 1e-10, "pair": 1e-10, "build": 1e-8}})
        dw = w.scene(f"dw{i}", {
            "coords": ["x", "y", "t", "z"],
            "projective": {"spray": S["spray"]},
            "build": {"gamma": S["beta"], "c": float(twist),
                      "H": S["H"], "G": S["G"]},
            "sampling": _sampling(box4),
            "tolerances": {"lax": 1e-10, "pair": 1e-10, "build": 1e-8}})
        tf_pair = w.scene(f"tf{i}-pair", {
            "coords": ["x", "y", "z"], "projective": {"spray": S["spray"]},
            "pair": _tf_pair(S), "expected_flags": TF_FLAGS,
            "sampling": _sampling(box3),
            "tolerances": {"lax": 1e-10, "gauge": 1e-10}})
        dw_pair = w.scene(f"dw{i}-pair", {
            "coords": ["x", "y", "t", "z"],
            "projective": {"spray": S["spray"]},
            "pair": _dw_pair(S, twist),
            "expected_flags": _dw_flags(twist),
            "sampling": _sampling(box4),
            "tolerances": {"lax": 1e-10, "gauge": 1e-10}})
        surf = w.scene(f"surf{i}", _surface_scene(S))
        mult = S["multiplier"]
        divisor = w.scene(f"div{i}", _root_divisor(rng))
        ward_scene, ward_truth = _ward(rng, S)
        ward = w.scene(f"ward{i}", ward_scene)
        n = LADDER[i % len(LADDER)]
        jobs += [
            Job("build-twistfree", tf, "tf", _expect(b_coeffs=b_tf), n),
            Job("build-dw", dw, "dw", _expect(b_coeffs=[0.0, 0.0, 0.0]), n),
            Job("verify-lax", tf_pair, "tf-pair", _expect(b_coeffs=b_tf), n),
            Job("verify-lax", dw_pair, "dw-pair", _expect(), n),
            Job("divisor2", divisor, "divisor",
                _expect(divisor_verdicts={"r_symmetric": True,
                                          "sum_flat": True,
                                          "r_skew": False,
                                          "diff_flat": False}), n),
            Job("projective-field", surf, "surface", _expect(), n),
            Job("congruence", surf, "surface",
                _expect(multiplier={"beta": [mult, mult, mult]}), n),
            Job("gauge-report", tf_pair if i == 0 else dw_pair,
                "tf-pair" if i == 0 else "dw-pair", _expect(), n),
            Job("ward", ward, "ward", _expect(ward_f=ward_truth), n),
        ]
    S = _radial_surface(rng)
    for j, eps in enumerate(_eps_pair(rng)):
        bent_pair = w.scene(f"dw-bent{j}", {
            "coords": ["x", "y", "t", "z"],
            "projective": {"spray": S["spray"]},
            "pair": _dw_pair(S, "0", bump=f" + {eps!r}*t"),
            "sampling": _sampling(dict(BOX_SURFACE, t=[-1, 1],
                                       z=[0.4, 1.4])),
            "tolerances": {"lax": 1e-10}})
        bent_cong = w.scene(f"surf-bent{j}", _surface_scene(
            S, beta=f"{S['beta']} + {eps!r}*x"))
        bent_field = w.scene(f"field-bent{j}", _surface_scene(
            S, fields={"bent": ["1", f"{eps!r}*y^2"]}))
        bent_div = w.scene(f"div-bent{j}", _root_divisor(
            random.Random(f"surface-{seed}-bent"), bend=eps))
        jobs += [
            Job("verify-lax", bent_pair, "dw-pair",
                _expect(1, ["lax_residual", "lax_cubic"],
                        _linear("lax", eps, ("check", "lax_residual")))),
            Job("congruence", bent_cong, "surface",
                _expect(1, ["congruence[beta]"],
                        _linear("congruence", eps,
                                ("check", "congruence[beta]")))),
            Job("projective-field", bent_field, "surface",
                _expect(1, ["projective_field[bent]"],
                        _linear("field", eps,
                                ("check", "projective_field[bent]")))),
            Job("divisor2", bent_div, "divisor",
                _expect(1, ["weyl_connection_consistency"],
                        _linear("divisor", eps,
                                ("check", "weyl_connection_consistency")))),
        ]
    return jobs


# -- cli-sweep ---------------------------------------------------------------


def _checked_in_expect(scene, command):
    oracles = {}
    if command in ("build-twistfree", "build-dw"):
        oracles["b_coeffs"] = [0.0, 0.0, 0.0]
    if scene == "ward":
        oracles["ward_f"] = {"f": [1.0, 0.0, 0.0],  # f = x y
                             "start": [0.0, 0.0]}
    if scene == "divisor2_roots":
        oracles["divisor_verdicts"] = {"r_symmetric": True, "sum_flat": True,
                                       "r_skew": False, "diff_flat": False}
    if scene == "divisor2_trivial":
        oracles["divisor_verdicts"] = {"r_symmetric": True, "sum_flat": True,
                                       "r_skew": True, "diff_flat": True}
    if scene == "nullkahler_hk" and command == "curvature":
        oracles["weyl_minus_below"] = 1e-8
    if scene == "burgers" and command == "congruence":
        # b(lam) = beta_y = 1/x at the probe (1, 2)
        oracles["multiplier"] = {"radial": [1.0, 1.0, 1.0]}
    return _expect(**oracles)


def _lax_control(eps):
    """The acceptance tests' perturbed-lax scene."""
    return {
        "coords": ["x", "y", "w1", "w2"],
        "pair": {"fiber": ["w1", "w2"],
                 "alpha0": [f"{eps!r}*w1*w2", "0"], "alpha1": ["0", "0"],
                 "phi0": ["1", "0"], "phi1": ["0", "1"]},
        "sampling": {"box": {"x": [0.5, 1.5], "y": [1.1, 2.9],
                             "w1": [0.2, 1.0], "w2": [0.2, 1.0]},
                     "count": 16, "seed": 0},
    }


def cli_sweep_jobs(seed, workdir, scenes_dir):
    """The checked-in scenes (copied into the work directory, so the
    program reads only files written here) with their natural commands,
    batch.json, the same scenes under a seeded Halton offset, and one
    negative-control pair."""
    rng = random.Random(f"cli-sweep-{seed}")
    w = _Writer(workdir)
    for name, _ in CHECKED_IN:
        shutil.copyfile(Path(scenes_dir) / f"{name}.json",
                        w.dir / f"{name}.json")
    shutil.copyfile(Path(scenes_dir) / "batch.json", w.dir / "batch.json")
    base, variants = [], []
    for name, commands in CHECKED_IN:
        data = json.loads((w.dir / f"{name}.json").read_text())
        count = data["sampling"]["count"]
        variant_seed = 1 + rng.randrange(100000)
        for command in commands:
            expect = _checked_in_expect(name, command)
            base.append(Job(command, w.dir / f"{name}.json", name, expect,
                            samples=count, seed=data["sampling"]["seed"]))
            variants.append(Job(command, w.dir / f"{name}.json", name,
                                expect, samples=count, seed=variant_seed))
    batch = Job("batch", w.dir / "batch.json", "batch",
                _expect(batch=list(BATCH_SCENES)), samples=None, seed=None)
    controls = []
    for j, eps in enumerate(_eps_pair(rng)):
        path = w.scene(f"lax-bent{j}", _lax_control(eps))
        controls.append(Job("verify-lax", path, "lax-bent",
                            _expect(1, ["lax_residual", "lax_cubic"],
                                    _linear("lax", eps,
                                            ("check", "lax_residual"))),
                            samples=16, seed=0))
    return base + [batch] + variants + controls


def jobs_for(workload, seed, workdir, scenes_dir):
    if workload == "certify4d":
        jobs = certify4d_jobs(seed, workdir)
    elif workload == "surface":
        jobs = surface_jobs(seed, workdir)
    elif workload == "cli-sweep":
        jobs = cli_sweep_jobs(seed, workdir, scenes_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(jobs)


def interleave(jobs):
    """Round-robin over commands, so a run cut short after any prefix
    still holds every command in nearly its full-cycle share."""
    by_command = {}
    for job in jobs:
        by_command.setdefault(job.command, []).append(job)
    queues = list(by_command.values())
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def ward_oracle(coeffs, start, end):
    """exp(f(start) - f(end)) for f = p x y + q x^2 + r y."""
    p, q, r = coeffs

    def f(x, y):
        return p * x * y + q * x * x + r * y
    return math.exp(f(start[0], start[1]) - f(end[0], end[1]))
