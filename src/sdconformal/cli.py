"""Scene-driven command line front end.

A scene is a JSON file declaring coordinates, a projective structure,
optional pair/field/congruence data, a sampling box and tolerances.
Each subcommand runs one certification pipeline over Halton sample
points drawn from the box and emits a JSON report whose verdicts are
pure functions of the residuals and tolerances; reports are
byte-reproducible for a fixed (scene, seed, version) apart from the
wall-time field.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 the scene did
not parse or validate, 3 a runtime domain error (singular expression,
path leaving the chart, ...).
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .expr import ExprError, ExprDomainError, parse
from .jets import JetDomainError, point_arrays
from .projective import ProjectiveSurface
from .pairs import (ProjectivePair, BuildError, build_lax, lax_residual,
                    projective_pair_residual, twist_free_normal_form,
                    dw_quadrature_build, gauge_reduction_report)
from .conformal import (MetricBuilder, curvature_report, certify_selfdual,
                        killing_report, frobenius_residual, build_null_kahler)
from .minitwistor import (WeightedCongruence, divisor_two_report,
                          ward_transport, projective_field_residual)
from .sampling import SamplingError, halton_points


class SceneError(Exception):
    """Scene failed to load or validate."""


_DOCS = Path(__file__).resolve().parents[2] / "docs"


@functools.lru_cache(maxsize=None)
def _validator(name):
    """The validator of a schema in docs/, read and checked once a process."""
    with open(_DOCS / name) as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, name):
    """Raise the error `jsonschema.validate` would raise, if any."""
    errors = _validator(name).iter_errors(instance)
    error = jsonschema.exceptions.best_match(errors)
    if error is not None:
        raise error


def load_scene(path):
    try:
        raw = Path(path).read_bytes()
        scene = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    try:
        _validate(scene, "scene.schema.json")
    except jsonschema.ValidationError as exc:
        raise SceneError(f"scene {path} invalid: {exc.message}") from exc
    scene["_digest"] = hashlib.sha256(raw).hexdigest()
    scene["_path"] = str(path)
    return scene


def _surface(scene):
    proj = scene.get("projective", {})
    try:
        if "spray" in proj:
            return ProjectiveSurface.from_spray(*proj["spray"])
        gamma = {}
        for key, expr in proj.get("gamma", {}).items():
            gamma[tuple(int(ch) for ch in key)] = expr
        return ProjectiveSurface(gamma)
    except ExprError as exc:
        raise SceneError(f"bad projective data: {exc}") from exc


def _pair(scene):
    spec = scene.get("pair")
    if spec is None:
        raise SceneError("scene has no pair section")
    try:
        return ProjectivePair(spec["fiber"], spec["alpha0"], spec["alpha1"],
                              spec["phi0"], spec["phi1"],
                              c0=spec.get("c0", 0.0), c1=spec.get("c1", 0.0))
    except (ExprError, ValueError, KeyError) as exc:
        raise SceneError(f"bad pair data: {exc}") from exc


class RunContext:
    """Sampling, tolerance lookup and flag state for one command run."""

    def __init__(self, scene, args):
        self.scene = scene
        self.args = args
        samp = scene.get("sampling", {})
        self.count = args.samples if args.samples else samp.get("count", 32)
        self.seed = args.seed if args.seed is not None else samp.get("seed", 0)
        self.order = args.order
        self.box = samp.get("box", {})
        self._exclusions = samp.get("exclusions", [])
        self._overrides = {}
        for item in args.tol or []:
            name, _, value = item.partition("=")
            if not value:
                raise SceneError(f"bad --tol override {item!r}")
            self._overrides[name] = float(value)
        self._cache = {}

    def tol(self, name, default):
        if name in self._overrides:
            return self._overrides[name]
        return float(self.scene.get("tolerances", {}).get(name, default))

    def points(self, names):
        """Halton sample dicts over the named coordinates."""
        names = tuple(names)
        if names not in self._cache:
            for nm in names:
                if nm not in self.box:
                    raise SceneError(f"sampling box lacks {nm}")
            excl = []
            for entry in self._exclusions:
                # only apply guards whose variables are all being sampled
                candidate = parse(str(entry["expr"]), tuple(self.box))
                if candidate.free_vars <= set(names):
                    excl.append((parse(str(entry["expr"]), names),
                                 float(entry["guard"])))
            self._cache[names] = halton_points(
                names, self.box, self.count, seed=self.seed, exclusions=excl)
        return self._cache[names]

    def surface_points(self):
        return [(p["x"], p["y"]) for p in self.points(("x", "y"))]


def _check(name, value, tolerance):
    """A tolerance check; a NaN or infinite value never passes."""
    value = float(value)
    return {"name": name, "value": value, "tolerance": float(tolerance),
            "verdict": math.isfinite(value) and value < tolerance}


def _flag_check(name, ok):
    return {"name": name, "value": 1.0 if ok else 0.0, "tolerance": 0.5,
            "verdict": bool(ok)}


# -- commands ------------------------------------------------------------------


def _cmd_verify_lax(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    res = lax_residual(build_lax(P, pair), pts)
    checks = [_check("lax_residual", res["residual"], ctx.tol("lax", 1e-10)),
              _check("lax_cubic", res["cubic_max"], ctx.tol("lax", 1e-10))]
    fitted = {"b_coeffs": np.asarray(res["b_coeffs"]).mean(axis=0).tolist()}
    return checks, fitted


def _cmd_verify_pair(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    res = projective_pair_residual(P, pair, pts)
    return [_check("pair_residual", res, ctx.tol("pair", 1e-10))], {}


def _cmd_certify_selfdual(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    rep = certify_selfdual(P, pair, pts, tol=ctx.tol("weyl_minus", 1e-8),
                           factor=scene.get("factor"),
                           lax_tol=ctx.tol("lax", 1e-10))
    checks = [
        _check("lax_residual", rep["lax_residual"], ctx.tol("lax", 1e-10)),
        _check("weyl_minus", rep["weyl_minus"], ctx.tol("weyl_minus", 1e-8)),
        _flag_check("signature", rep["signature_ok"]),
    ]
    if "ricci" in scene.get("tolerances", {}):
        checks.append(_check("ricci", rep["ricci"], ctx.tol("ricci", 1e-9)))
    fitted = {k: rep[k] for k in ("weyl_plus", "ricci", "star_defect",
                                  "lax_cubic_max")}
    return checks, fitted


def _metric_builder(scene):
    metric = scene.get("metric")
    if metric is not None:
        return MetricBuilder(components=metric["components"],
                             coords=scene["coords"],
                             orientation=metric.get("orientation", 1.0))
    return MetricBuilder(pair=_pair(scene), factor=scene.get("factor"))


def _cmd_curvature(scene, ctx):
    builder = _metric_builder(scene)
    pt = point_arrays(ctx.points(tuple(builder.coords)))
    rep = curvature_report(builder.jets(pt, order=2), builder.coords,
                           builder.orientation(pt))
    worst = {k: float(np.max(rep[k]))
             for k in ("riemann", "ricci", "ricci_tracefree", "scalar",
                       "weyl_plus", "weyl_minus", "star_defect")}
    signature = bool(np.all(rep["signature_ok"]))
    checks = [_check("star_defect", worst["star_defect"],
                     ctx.tol("curvature", 1e-10)),
              _flag_check("signature", signature)]
    return checks, worst


def _cmd_killing(scene, ctx):
    builder = _metric_builder(scene)
    pts = ctx.points(tuple(builder.coords))
    checks, fitted = [], {}
    for name, comps in scene.get("fields", {}).items():
        rep = killing_report(builder, comps, pts)
        checks.append(_check(f"conformal_killing[{name}]",
                             rep["conformal_killing"],
                             ctx.tol("killing", 1e-12)))
        fitted[name] = {k: rep[k] for k in ("exact_killing", "null_defect",
                                            "geodesic", "twist_max")}
        fitted[name]["twist"] = rep["twist"]
    if not checks:
        raise SceneError("killing: scene declares no fields")
    return checks, fitted


def _cmd_frobenius(scene, ctx):
    coords = tuple(scene["coords"])
    pts = ctx.points(coords)
    checks = []
    for name, fields in scene.get("distributions", {}).items():
        res = frobenius_residual(fields, coords, pts)
        checks.append(_check(f"frobenius[{name}]", res,
                             ctx.tol("frobenius", 1e-9)))
    if not checks:
        raise SceneError("frobenius: scene declares no distributions")
    return checks, {}


def _cmd_congruence(scene, ctx):
    P = _surface(scene)
    pts = ctx.surface_points()
    checks, fitted = [], {}
    probe = tuple(scene.get("probe", pts[0]))
    for name, beta in scene.get("congruences", {}).items():
        res = P.congruence_residual(beta, pts)
        checks.append(_check(f"congruence[{name}]", res,
                             ctx.tol("congruence", 1e-12)))
        fitted[name] = {
            "probe": list(probe),
            "multiplier": [P.congruence_multiplier(beta, probe, lam)
                           for lam in (0.0, 1.0, 2.0)],
        }
    if not checks:
        raise SceneError("congruence: scene declares no congruences")
    return checks, fitted


def _build_points(ctx, fiber):
    return ctx.points(("x", "y") + tuple(fiber))


def _verify_built(scene, ctx, P, pair, pts, fitted):
    lres = lax_residual(build_lax(P, pair), pts)
    pres = projective_pair_residual(P, pair, pts)
    fitted["b_coeffs"] = np.asarray(lres["b_coeffs"]).mean(axis=0).tolist()
    return [_check("lax_residual", lres["residual"], ctx.tol("lax", 1e-10)),
            _check("pair_residual", pres, ctx.tol("pair", 1e-10))]


def _cmd_build_dw(scene, ctx):
    P = _surface(scene)
    spec = scene.get("build", {})
    pts = _build_points(ctx, ("t", "z"))
    fitted = {}
    try:
        pair = dw_quadrature_build(P, spec["gamma"], spec.get("c", 0.0),
                                   spec["H"], spec["G"], points=pts,
                                   tol=ctx.tol("build", 1e-8))
    except BuildError as exc:
        return [_flag_check("build", False)], {"error": str(exc)}
    checks = [_flag_check("build", True)]
    checks += _verify_built(scene, ctx, P, pair, pts, fitted)
    return checks, fitted


def _cmd_build_twistfree(scene, ctx):
    P = _surface(scene)
    spec = scene.get("build", {})
    pts = _build_points(ctx, ("z",))
    fitted = {}
    try:
        pair = twist_free_normal_form(P, spec["beta"],
                                      points=[(p["x"], p["y"]) for p in pts],
                                      tol=ctx.tol("build", 1e-8))
    except BuildError as exc:
        return [_flag_check("build", False)], {"error": str(exc)}
    checks = [_flag_check("build", True)]
    checks += _verify_built(scene, ctx, P, pair, pts, fitted)
    return checks, fitted


def _cmd_build_nullkahler(scene, ctx):
    spec = scene.get("build", {})
    built = build_null_kahler(spec["a"], spec["c"], spec["f"])
    pts = ctx.points(("x", "y", "t", "z"))
    rep = built["check"](pts)
    checks = [
        _check("domega", rep["domega"], ctx.tol("domega", 1e-12)),
        _check("J_squared", rep["J_null"], ctx.tol("exact", 1e-15)),
        _check("compatibility", rep["compat"], ctx.tol("compat", 1e-10)),
        _check("g_JJ", rep["g_JJ"], ctx.tol("compat", 1e-10)),
        _check("killing", rep["killing"], ctx.tol("killing", 1e-12)),
        _check("omega_antiselfdual", rep["omega_antiselfdual"],
               ctx.tol("compat", 1e-10)),
    ]
    cert = certify_selfdual(built["surface"], built["pair"], pts,
                            tol=ctx.tol("weyl_minus", 1e-8),
                            factor=spec["f"], lax_tol=ctx.tol("lax", 1e-10))
    checks.append(_check("weyl_minus", cert["weyl_minus"],
                         ctx.tol("weyl_minus", 1e-8)))
    fitted = {"weyl_plus": cert["weyl_plus"], "ricci": cert["ricci"]}
    if "ricci" in scene.get("tolerances", {}):
        checks.append(_check("ricci", cert["ricci"], ctx.tol("ricci", 1e-9)))
    return checks, fitted


def _cmd_gauge_report(scene, ctx):
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    flags, values = gauge_reduction_report(pair, pts,
                                           tol=ctx.tol("gauge", 1e-10))
    expected = scene.get("expected_flags")
    checks = []
    for name, val in sorted(flags.items()):
        if expected is not None and name in expected:
            checks.append(_flag_check(f"flag[{name}]",
                                      bool(val) == bool(expected[name])))
        else:
            checks.append(_flag_check(f"flag[{name}]", True))
    return checks, {"flags": {k: bool(v) for k, v in flags.items()},
                    "values": values}


def _cmd_divisor2(scene, ctx):
    P = _surface(scene)
    entries = scene.get("divisor2")
    if not entries or len(entries) != 2:
        raise SceneError("divisor2: scene must declare exactly two entries")
    congs = [WeightedCongruence(e["phi"], e.get("rho", ("0", "0")))
             for e in entries]
    pts = ctx.surface_points()
    tol = ctx.tol("divisor2", 1e-8)
    rep = divisor_two_report(P, congs[0], congs[1], pts, tol=tol)
    checks = [
        _check("weyl_connection_consistency", rep["dc_residual"], tol),
        _flag_check("sym_equivalence",
                    rep["r_symmetric"] == rep["sum_flat"]),
        _flag_check("skew_equivalence", rep["r_skew"] == rep["diff_flat"]),
    ]
    fitted = {k: rep[k] for k in ("sym_r", "skew_r", "f_sum", "f_diff")}
    fitted["verdicts"] = {k: bool(rep[k]) for k in
                          ("r_symmetric", "sum_flat", "r_skew", "diff_flat")}
    return checks, fitted


def _cmd_ward(scene, ctx):
    P = _surface(scene)
    spec = scene.get("ward")
    if spec is None:
        raise SceneError("ward: scene has no ward section")
    start = tuple(spec["start"])
    length = float(spec["length"])
    step = float(spec.get("step", 0.01))
    coarse = ward_transport(P, spec["rho"], start, length, step)
    fine = ward_transport(P, spec["rho"], start, length, step / 2.0)
    delta = abs(coarse["transport"] - fine["transport"])
    checks = [_check("transport_convergence", delta, ctx.tol("ward", 1e-9))]
    fitted = {"transport": fine["transport"],
              "end": [float(v) for v in fine["end"]]}
    return checks, fitted


def _cmd_projective_field(scene, ctx):
    P = _surface(scene)
    pts = ctx.surface_points()
    checks = []
    for name, comps in scene.get("surface_fields", {}).items():
        res = projective_field_residual(P, comps, pts)
        checks.append(_check(f"projective_field[{name}]", res,
                             ctx.tol("projective_field", 1e-10)))
    if not checks:
        raise SceneError("projective-field: scene declares no surface_fields")
    return checks, {}


def _cmd_batch(scene, ctx):
    jobs = scene.get("batch")
    if not jobs:
        raise SceneError("batch: scene has no batch list")
    base = Path(scene["_path"]).parent
    reports = []
    ok = True
    for job in jobs:
        sub = load_scene(base / job["scene"])
        rep = run_command(job["command"], sub, ctx.args)
        reports.append(rep)
        ok = ok and rep["pass"]
    checks = [_flag_check("batch", ok)]
    return checks, {"reports": reports}


COMMANDS = {
    "verify-lax": _cmd_verify_lax,
    "verify-pair": _cmd_verify_pair,
    "certify-selfdual": _cmd_certify_selfdual,
    "curvature": _cmd_curvature,
    "killing": _cmd_killing,
    "frobenius": _cmd_frobenius,
    "congruence": _cmd_congruence,
    "build-dw": _cmd_build_dw,
    "build-twistfree": _cmd_build_twistfree,
    "build-nullkahler": _cmd_build_nullkahler,
    "gauge-report": _cmd_gauge_report,
    "divisor2": _cmd_divisor2,
    "ward": _cmd_ward,
    "projective-field": _cmd_projective_field,
    "batch": _cmd_batch,
}


def _clean(obj):
    """JSON-safe copy: numpy scalars/arrays to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def run_command(command, scene, args):
    ctx = RunContext(scene, args)
    t0 = time.perf_counter()
    checks, fitted = COMMANDS[command](scene, ctx)
    report = {
        "command": command,
        "scene": scene.get("name", Path(scene["_path"]).stem),
        "scene_digest": scene["_digest"],
        "version": __version__,
        "seed": int(ctx.seed),
        "samples": int(ctx.count),
        "order": int(ctx.order),
        "checks": checks,
        "fitted": fitted,
        "pass": all(c["verdict"] for c in checks),
        "wall_time": time.perf_counter() - t0,
    }
    return _clean(report)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sdconformal",
        description="certify selfdual conformal structures built from "
                    "projective surface data")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("scene", help="path to a JSON scene file")
    parser.add_argument("--out", help="write the report here (default stdout)")
    parser.add_argument("--samples", type=_positive_int, default=None,
                        help="override the scene's sample count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scene's sampling seed")
    parser.add_argument("--tol", action="append", metavar="NAME=FLOAT",
                        help="override a named tolerance (repeatable)")
    parser.add_argument("--order", type=int, choices=(2, 3), default=3,
                        help="jet truncation order for consistency sweeps")
    args = parser.parse_args(argv)

    try:
        scene = load_scene(args.scene)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_command(args.command, scene, args)
    except (SceneError, SamplingError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except (ExprDomainError, JetDomainError, ZeroDivisionError,
            np.linalg.LinAlgError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

    try:
        _validate(report, "report.schema.json")
    except jsonschema.ValidationError as exc:  # defensive; a bug if it fires
        print(f"internal report error: {exc.message}", file=sys.stderr)
        return 3
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
