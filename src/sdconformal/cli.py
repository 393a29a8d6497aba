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
import json
import math
import numbers
import re
import sys
import time
from pathlib import Path

# The scene digest takes CPython's builtin SHA-256, as `random` takes its
# SHA-512: hashlib would map OpenSSL's libcrypto for this one call.
try:
    from _sha2 import sha256              # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256        # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256        # a Python without builtin hashes

import numpy as np

from . import __version__
from .expr import ExprError, as_expression, parse
from .jets import JetDomainError, max_abs
from .projective import ProjectiveSurface
from .pairs import (ProjectivePair, BuildError, build_lax, lax_residual,
                    projective_pair_residual, twist_free_normal_form,
                    dw_quadrature_build, gauge_reduction_report)
from .conformal import (MetricBuilder, curvature_report, killing_report,
                        frobenius_residual, build_null_kahler)
from .minitwistor import (WeightedCongruence, divisor_two_report,
                          ward_transport, projective_field_residual)
from .sampling import SamplingError, halton_points


class SceneError(Exception):
    """Scene failed to load or validate."""


_SCHEMAS = Path(__file__).resolve().parent / "schemas"


@functools.lru_cache(maxsize=None)
def _schema(name):
    """A packaged JSON schema, read once a process."""
    with open(_SCHEMAS / name) as fh:
        return json.load(fh)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _json_equal(a, b):
    """JSON equality with a scalar (`_enum` admits no container), as
    jsonschema's `enum` sees it: True is not 1, and 1.0 is 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# A check takes one instance and returns its errors in jsonschema's order,
# () when it is valid.  An error is (path, message): the keys and indices
# from the instance to the offending value, and jsonschema 4.26's wording.

def _error(message):
    return (((), message),)


def _all(checks):
    """The check that runs `checks` in order and returns all their errors."""
    if len(checks) == 1:
        return checks[0]

    def check(v):
        errors = ()
        for c in checks:
            errors += c(v)
        return errors
    return check


def _descend(kind, keyed):
    """The check that, on a `kind` instance `v`, returns the errors of
    `v[k]` under `c` for each `(k, c)` of `keyed(v)`, put under `k`."""
    def check(v):
        errors = ()
        if isinstance(v, kind):
            for k, c in keyed(v):
                found = c(v[k])
                if found:
                    errors += tuple(((k,) + path, m) for path, m in found)
        return errors
    return check


def _type(a, s, r):
    names = [a] if isinstance(a, str) else a
    tests = [_TYPES[t] for t in names if t in _TYPES]
    if len(tests) < len(names):
        raise ValueError(f"unknown schema type in {a!r}")
    wanted = ", ".join(map(repr, names))
    test = functools.reduce(lambda f, g: lambda v: f(v) or g(v), tests)
    return lambda v: (() if test(v)
                      else _error(f"{v!r} is not of type {wanted}"))


def _enum(a, s, r):
    if any(isinstance(e, (list, dict)) for e in a):
        raise ValueError(f"enum {a!r} lists a container")
    return lambda v: (() if any(_json_equal(v, e) for e in a)
                      else _error(f"{v!r} is not one of {a!r}"))


def _ref(a, s, r):
    name = a[len(_DEFS):] if a.startswith(_DEFS) else None
    if name not in r.get("$defs", {}):
        raise ValueError(f"cannot follow $ref {a!r}")
    return _compile(r["$defs"][name], r)


def _items(a, s, r):
    check = _compile(a, r)
    return _descend(list, lambda v: zip(range(len(v)), [check] * len(v)))


def _properties(a, s, r):
    checks = [(k, _compile(sub, r)) for k, sub in a.items()]
    return _descend(dict, lambda v: [(k, c) for k, c in checks if k in v])


def _pattern_properties(a, s, r):
    checks = [(re.compile(p).search, _compile(x, r)) for p, x in a.items()]
    return _descend(dict, lambda v: [(k, c) for search, c in checks
                                     for k in v if search(k)])


def _additional_properties(a, s, r):
    """The check of the values whose keys neither `properties` nor
    `patternProperties` of `s` covers; `false` admits no such key."""
    named = s.get("properties", {})
    patterns = "|".join(s.get("patternProperties", {}))  # as jsonschema

    def extras(v):
        keys = v.keys() - named
        if patterns:
            keys = [k for k in keys if not re.search(patterns, k)]
        return sorted(keys)
    if a is not False:
        check = _compile(a, r)
        return _descend(dict, lambda v: [(k, check) for k in extras(v)])
    regexes = ", ".join(map(repr, sorted(s.get("patternProperties", ()))))

    def check(v):
        extra = extras(v) if isinstance(v, dict) else ()
        if not extra:
            return ()
        keys, one = ", ".join(map(repr, extra)), len(extra) == 1
        if "patternProperties" in s:
            return _error(f"{keys} {'does' if one else 'do'} not match any "
                          f"of the regexes: {regexes}")
        return _error(f"Additional properties are not allowed ({keys} "
                      f"{'was' if one else 'were'} unexpected)")
    return check


def _length(words, wrong):
    """The check that words an array whose length `n` is `wrong(n)`."""
    return lambda v: (_error(f"{v!r} {words}")
                      if isinstance(v, list) and wrong(len(v)) else ())


_DEFS = "#/$defs/"

# keyword -> compile(keyword argument, schema, root schema), which returns
# the keyword's check of one instance, or None for a keyword that checks
# nothing; a check of a keyword about one type passes other types
_KEYWORDS = {
    "$schema": lambda *_: None,
    "$defs": lambda *_: None,
    "title": lambda *_: None,
    "description": lambda *_: None,
    "type": _type,
    "enum": _enum,
    "$ref": _ref,
    "minimum": lambda a, s, r: lambda v: (
        _error(f"{v!r} is less than the minimum of {a!r}")
        if _TYPES["number"](v) and v < a else ()),
    "pattern": lambda a, s, r: lambda v: (
        _error(f"{v!r} does not match {a!r}")
        if isinstance(v, str) and re.search(a, v) is None else ()),
    "minItems": lambda a, s, r: _length(
        "should be non-empty" if a == 1 else "is too short", a.__gt__),
    "maxItems": lambda a, s, r: _length(
        "is expected to be empty" if a == 0 else "is too long", a.__lt__),
    "items": _items,
    "required": lambda a, s, r: lambda v: tuple(
        ((), f"{k!r} is a required property") for k in a
        if isinstance(v, dict) and k not in v),
    "properties": _properties,
    "patternProperties": _pattern_properties,
    "additionalProperties": _additional_properties,
}


def _compile(schema, root):
    """`schema`, a subschema of `root`, as a check that finds the errors
    jsonschema 4.26 finds, keyword by keyword in the schema's order.  A
    keyword the packaged schemas do not use, a `$ref` outside `root`'s
    `$defs` and a false subschema (`{"not": {}}`) raise ValueError here.
    Subschemas compile with it: the schemas have no recursive `$ref`."""
    if isinstance(schema, bool):
        schema = {} if schema else {"not": {}}
    checks = []
    for key, arg in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"unknown schema keyword {key!r}")
        check = _KEYWORDS[key](arg, schema, root)
        if check is not None:
            checks.append(check)
    return _all(checks)


@functools.lru_cache(maxsize=None)
def _validator(name):
    """The compiled check of the packaged schema `name`, made whole on
    its first use and kept for the rest of the process."""
    schema = _schema(name)
    return _compile(schema, schema)


def _schema_error(instance, name):
    """The message `jsonschema.validate` raises against the packaged schema
    `name`, or None if `instance` is valid.  With no `anyOf` or `oneOf`,
    `best_match` picks the shortest path, then the greatest, then the first."""
    errors = _validator(name)(instance)
    return max(errors, key=lambda e: (-len(e[0]), e[0]))[1] if errors else None


def _scene_int(text):
    """A scene's integer literal, which must fit a float: the commands read
    its numbers as floats."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits "
                         "does not fit a float") from None
    return value


def load_scene(path):
    try:
        raw = Path(path).read_bytes()
        scene = json.loads(raw, parse_int=_scene_int)
    # also bad UTF, a NUL in the path, JSON nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    message = _schema_error(scene, "scene.schema.json")
    if message is not None:
        raise SceneError(f"scene {path} invalid: {message}")
    scene["_digest"] = sha256(raw).hexdigest()
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


# The named tolerances, as a scene's "tolerances" or --tol NAME=FLOAT
# sets them, and their defaults.
TOLERANCES = {
    "lax": 1e-10, "pair": 1e-10, "weyl_minus": 1e-8, "ricci": 1e-9,
    "curvature": 1e-10, "killing": 1e-12, "frobenius": 1e-9,
    "congruence": 1e-12, "build": 1e-8, "domega": 1e-12, "exact": 1e-15,
    "compat": 1e-10, "gauge": 1e-10, "divisor2": 1e-8, "ward": 1e-9,
    "projective_field": 1e-10,
}


class RunContext:
    """Sampling, tolerances and flag state for one command run."""

    def __init__(self, scene, args):
        self.args = args
        samp = scene.get("sampling", {})
        self.count = args.samples if args.samples else samp.get("count", 32)
        self.seed = args.seed if args.seed is not None else samp.get("seed", 0)
        self.box = samp.get("box", {})
        self._exclusions = samp.get("exclusions", [])
        given = scene.get("tolerances", {})
        for name, value in given.items():
            if name not in TOLERANCES:
                raise SceneError(f"unknown tolerance {name!r}; known: "
                                 f"{', '.join(TOLERANCES)}")
            if math.isnan(value):
                raise SceneError(f"tolerance {name} needs a number, not NaN")
        tolerances = {**TOLERANCES, **given, **dict(args.tol or [])}
        self.tol = {name: float(v) for name, v in tolerances.items()}

    def points(self, names):
        """The Halton sample set over the named coordinates: a dict of
        1-D value arrays (`halton_points`), passed to residuals as it is."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise SceneError(f"coordinates {list(names)} repeat a name")
        for nm in names:
            if nm not in self.box:
                raise SceneError(f"sampling box lacks {nm}")
        guards = [(parse(str(entry["expr"]), tuple(self.box)),
                   float(entry["guard"])) for entry in self._exclusions]
        # only apply guards whose variables are all being sampled
        excl = [(e, guard) for e, guard in guards if e.free_vars <= set(names)]
        return halton_points(names, self.box, self.count, seed=self.seed,
                             exclusions=excl)


def _check(name, value, tolerance):
    """A tolerance check of a residual's largest |entry|; a NaN or
    infinite value never passes."""
    value = max_abs(value)
    return {"name": name, "value": value, "tolerance": float(tolerance),
            "verdict": math.isfinite(value) and value < tolerance}


def _flag_check(name, ok):
    """A yes/no check; an undecided one (`ok` None) reads NaN and fails."""
    value = math.nan if ok is None else float(bool(ok))
    return {"name": name, "value": value, "tolerance": 0.5,
            "verdict": bool(ok)}


# -- commands ------------------------------------------------------------------


def _cmd_verify_lax(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    res = lax_residual(build_lax(P, pair), pts)
    checks = [_check("lax_residual", res["residual"], ctx.tol["lax"]),
              _check("lax_cubic", res["cubic"], ctx.tol["lax"])]
    fitted = {"b_coeffs": np.asarray(res["b_coeffs"]).mean(axis=0).tolist()}
    return checks, fitted


def _cmd_verify_pair(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    res = projective_pair_residual(P, pair, pts)
    return [_check("pair_residual", res, ctx.tol["pair"])], {}


def _cmd_certify_selfdual(scene, ctx):
    P = _surface(scene)
    pair = _pair(scene)
    builder = _pair_metric(scene, pair)
    pts = ctx.points(("x", "y") + pair.fiber)
    lax = lax_residual(build_lax(P, pair), pts)
    g, orientation = builder.jets(pts)
    curv = curvature_report(g, orientation)
    fitted = {k: max_abs(curv[k])
              for k in ("weyl_plus", "ricci", "star_defect")}
    checks = [
        _check("lax_residual", lax["residual"], ctx.tol["lax"]),
        _check("weyl_minus", curv["weyl_minus"], ctx.tol["weyl_minus"]),
        _flag_check("signature", np.all(curv["signature_ok"])),
    ]
    if "ricci" in scene.get("tolerances", {}):
        checks.append(_check("ricci", fitted["ricci"], ctx.tol["ricci"]))
    fitted["lax_cubic_max"] = max_abs(lax["cubic"])
    return checks, fitted


def _pair_metric(scene, pair):
    """The metric of the pair's frame, times the scene's factor."""
    if len(pair.fiber) != 2:
        raise SceneError("a 4-metric needs a 2-dimensional fiber, not "
                         f"{list(pair.fiber)}")
    return MetricBuilder(pair=pair, factor=scene.get("factor"))


def _metric_builder(scene):
    metric = scene.get("metric")
    if metric is not None:
        if len(scene["coords"]) != 4:
            raise SceneError("a 4-metric needs 4 coordinates, not "
                             f"{scene['coords']}")
        return MetricBuilder(components=metric["components"],
                             coords=scene["coords"],
                             orientation=metric.get("orientation", 1.0))
    return _pair_metric(scene, _pair(scene))


# The `curvature_report` tensors whose largest entries `curvature` reports.
CURVATURE_NORMS = ("riemann", "ricci", "ricci_tracefree", "scalar",
                   "weyl_plus", "weyl_minus", "star_defect")


def _cmd_curvature(scene, ctx):
    builder = _metric_builder(scene)
    g, orientation = builder.jets(ctx.points(tuple(builder.coords)))
    curv = curvature_report(g, orientation)
    worst = {k: max_abs(curv[k]) for k in CURVATURE_NORMS}
    checks = [
        _check("star_defect", worst["star_defect"], ctx.tol["curvature"]),
        _flag_check("signature", np.all(curv["signature_ok"]))]
    return checks, worst


def _cmd_killing(scene, ctx):
    builder = _metric_builder(scene)
    pts = ctx.points(tuple(builder.coords))
    fields = {}
    for name, comps in scene.get("fields", {}).items():
        _require_components(f"killing: field {name}", comps, builder.coords)
        fields[name] = [as_expression(c, builder.coords) for c in comps]
    if not fields:
        raise SceneError("killing: scene declares no fields")
    # the residuals read the metric's value and first derivatives only
    g, _ = builder.jets(pts, order=1)
    checks, fitted = [], {}
    for name, rep in killing_report(g, fields, pts).items():
        checks.append(_check(f"conformal_killing[{name}]",
                             rep["conformal_killing"], ctx.tol["killing"]))
        fitted[name] = {k: max_abs(rep[k])
                        for k in ("exact_killing", "null_defect", "geodesic")}
        fitted[name]["twist"] = rep["twist"].tolist()
        fitted[name]["twist_max"] = max_abs(rep["twist"])
    return checks, fitted


def _require_components(what, field, coords):
    """A vector field needs one component per coordinate."""
    if len(field) != len(coords):
        raise SceneError(f"{what} has {len(field)} components, not one per "
                         f"coordinate {list(coords)}")


def _cmd_frobenius(scene, ctx):
    coords = tuple(scene["coords"])
    pts = ctx.points(coords)
    checks = []
    for name, fields in scene.get("distributions", {}).items():
        for field in fields:
            _require_components(f"frobenius: a field of {name}", field, coords)
        res = frobenius_residual(fields, coords, pts)
        checks.append(_check(f"frobenius[{name}]", res, ctx.tol["frobenius"]))
    if not checks:
        raise SceneError("frobenius: scene declares no distributions")
    return checks, {}


def _cmd_congruence(scene, ctx):
    P = _surface(scene)
    pts = ctx.points(("x", "y"))
    checks, fitted = [], {}
    x0, y0 = scene.get("probe", (float(pts["x"][0]), float(pts["y"][0])))
    probe = {"x": x0, "y": y0}
    for name, beta in scene.get("congruences", {}).items():
        res = P.congruence_residual(beta, pts)
        checks.append(_check(f"congruence[{name}]", res,
                             ctx.tol["congruence"]))
        fitted[name] = {
            "probe": [x0, y0],
            "multiplier": [float(P.congruence_multiplier(beta, probe, lam))
                           for lam in (0.0, 1.0, 2.0)],
        }
    if not checks:
        raise SceneError("congruence: scene declares no congruences")
    return checks, fitted


def _verify_built(ctx, P, pts, build):
    """Run a builder, then certify the pair it returns with the Lax and
    the first-order pair residuals; a `BuildError` fails the build check."""
    try:
        pair = build()
    except BuildError as exc:
        return [_flag_check("build", False)], {"error": str(exc)}
    lres = lax_residual(build_lax(P, pair), pts)
    pres = projective_pair_residual(P, pair, pts)
    fitted = {"b_coeffs": np.asarray(lres["b_coeffs"]).mean(axis=0).tolist()}
    return [_flag_check("build", True),
            _check("lax_residual", lres["residual"], ctx.tol["lax"]),
            _check("pair_residual", pres, ctx.tol["pair"])], fitted


def _build_spec(scene, command, *keys):
    """The scene's build section, which must hold `keys`."""
    spec = scene.get("build", {})
    missing = [key for key in keys if key not in spec]
    if missing:
        raise SceneError(f"{command}: build section lacks {missing}")
    return spec


def _cmd_build_dw(scene, ctx):
    P = _surface(scene)
    spec = _build_spec(scene, "build-dw", "gamma", "H", "G")
    pts = ctx.points(("x", "y", "t", "z"))
    return _verify_built(ctx, P, pts, lambda: dw_quadrature_build(
        P, spec["gamma"], spec.get("c", 0.0), spec["H"], spec["G"],
        points=pts, tol=ctx.tol["build"]))


def _cmd_build_twistfree(scene, ctx):
    P = _surface(scene)
    spec = _build_spec(scene, "build-twistfree", "beta")
    pts = ctx.points(("x", "y", "z"))
    return _verify_built(ctx, P, pts, lambda: twist_free_normal_form(
        P, spec["beta"], points=pts, tol=ctx.tol["build"]))


def _cmd_build_nullkahler(scene, ctx):
    spec = _build_spec(scene, "build-nullkahler", "a", "c", "f")
    built = build_null_kahler(spec["a"], spec["c"], spec["f"])
    pts = ctx.points(("x", "y", "t", "z"))
    g, orientation = built["metric"].jets(pts)
    curv = curvature_report(g, orientation)
    rep = built["check"](pts, g, curv["star"])
    checks = [
        _check("domega", rep["domega"], ctx.tol["domega"]),
        _check("J_squared", rep["J_null"], ctx.tol["exact"]),
        _check("compatibility", rep["compat"], ctx.tol["compat"]),
        _check("g_JJ", rep["g_JJ"], ctx.tol["compat"]),
        _check("killing", rep["killing"], ctx.tol["killing"]),
        _check("omega_antiselfdual", rep["omega_antiselfdual"],
               ctx.tol["compat"]),
        _check("weyl_minus", curv["weyl_minus"], ctx.tol["weyl_minus"]),
    ]
    fitted = {k: max_abs(curv[k]) for k in ("weyl_plus", "ricci")}
    if "ricci" in scene.get("tolerances", {}):
        checks.append(_check("ricci", fitted["ricci"], ctx.tol["ricci"]))
    return checks, fitted


def _cmd_gauge_report(scene, ctx):
    pair = _pair(scene)
    pts = ctx.points(("x", "y") + pair.fiber)
    flags, values = gauge_reduction_report(pair, pts, tol=ctx.tol["gauge"])
    expected = scene.get("expected_flags") or {}
    checks = [_flag_check(f"flag[{name}]", None if val is None else
                          name not in expected or val == bool(expected[name]))
              for name, val in sorted(flags.items())]
    return checks, {"flags": flags, "values": values}


def _cmd_divisor2(scene, ctx):
    P = _surface(scene)
    entries = scene.get("divisor2")
    if not entries or len(entries) != 2:
        raise SceneError("divisor2: scene must declare exactly two entries")
    congs = [WeightedCongruence(e["phi"], e.get("rho", ("0", "0")))
             for e in entries]
    pts = ctx.points(("x", "y"))
    tol = ctx.tol["divisor2"]
    rep = divisor_two_report(P, congs[0], congs[1], pts, tol=tol)
    checks = [
        _check("weyl_connection_consistency", rep["dc_residual"], tol),
        _flag_check("sym_equivalence", rep["sym_equivalence"]),
        _flag_check("skew_equivalence", rep["skew_equivalence"]),
    ]
    fitted = {k: rep[k] for k in ("sym_r", "skew_r", "f_sum", "f_diff")}
    fitted["verdicts"] = {k: rep[k] for k in
                          ("r_symmetric", "sum_flat", "r_skew", "diff_flat")}
    return checks, fitted


# A cap on the RK4 steps of ward's run at step/2, which lists every step.
WARD_MAX_STEPS = 10**6


def _cmd_ward(scene, ctx):
    P = _surface(scene)
    spec = scene.get("ward")
    if spec is None:
        raise SceneError("ward: scene has no ward section")
    start = tuple(spec["start"])
    length = float(spec["length"])
    step = float(spec.get("step", 0.01))
    for name, value in (("step", step), ("length", length)):
        if not 0.0 < value < math.inf:   # also rejects NaN
            raise SceneError(f"ward: {name} must be positive and finite, "
                             f"got {value!r}")
    fine_steps = 2.0 * length / step
    if fine_steps > WARD_MAX_STEPS:
        raise SceneError(f"ward: the run at step/2 would take {fine_steps:.6g}"
                         f" steps, more than {WARD_MAX_STEPS}")
    coarse = ward_transport(P, spec["rho"], start, length, step)
    fine = ward_transport(P, spec["rho"], start, length, step / 2.0)
    # on Python floats: inf - inf is NaN without a numpy RuntimeWarning
    delta = abs(float(coarse["transport"]) - float(fine["transport"]))
    checks = [_check("transport_convergence", delta, ctx.tol["ward"])]
    fitted = {"transport": float(fine["transport"]),
              "end": [float(v) for v in fine["end"]]}
    return checks, fitted


def _cmd_projective_field(scene, ctx):
    P = _surface(scene)
    pts = ctx.points(("x", "y"))
    checks = []
    for name, comps in scene.get("surface_fields", {}).items():
        res = projective_field_residual(P, comps, pts)
        checks.append(_check(f"projective_field[{name}]", res,
                             ctx.tol["projective_field"]))
    if not checks:
        raise SceneError("projective-field: scene declares no surface_fields")
    return checks, {}


def _cmd_batch(scene, ctx):
    jobs = scene.get("batch")
    if not jobs:
        raise SceneError("batch: scene has no batch list")
    for job in jobs:
        if job["command"] == "batch":
            raise SceneError("batch: batches do not nest")
        if job["command"] not in COMMANDS:
            raise SceneError(f"batch: unknown command {job['command']!r}")
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


def run_command(command, scene, args):
    ctx = RunContext(scene, args)
    t0 = time.perf_counter()
    checks, fitted = COMMANDS[command](scene, ctx)
    return {
        "command": command,
        "scene": scene.get("name", Path(scene["_path"]).stem),
        "scene_digest": scene["_digest"],
        "version": __version__,
        "seed": int(ctx.seed),
        "samples": int(ctx.count),
        "checks": checks,
        "fitted": fitted,
        "pass": all(c["verdict"] for c in checks),
        "wall_time": time.perf_counter() - t0,
    }


def _tolerance(text):
    """A --tol override NAME=FLOAT, as (name, value)."""
    name, _, value = text.partition("=")
    if name not in TOLERANCES:
        raise argparse.ArgumentTypeError(
            f"unknown tolerance {name!r}; known: {', '.join(TOLERANCES)}")
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise argparse.ArgumentTypeError(
            f"tolerance {name} needs a number, not {value!r}")
    return name, number


def _int_at_least(low):
    """The argparse type of an int no less than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value
    return integer


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once a process."""
    parser = argparse.ArgumentParser(
        prog="sdconformal",
        description="certify selfdual conformal structures built from "
                    "projective surface data")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("scene", help="path to a JSON scene file")
    parser.add_argument("--out", help="write the report here (default stdout)")
    parser.add_argument("--samples", type=_int_at_least(1), default=None,
                        help="override the scene's sample count")
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the scene's sampling seed")
    parser.add_argument("--tol", action="append", type=_tolerance,
                        metavar="NAME=FLOAT",
                        help="override a named tolerance (repeatable)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        report = run_command(args.command, load_scene(args.scene), args)
    except (SceneError, SamplingError, ExprError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:   # parsing, compiling and diff recurse on nesting
        print("scene error: an expression is nested too deeply",
              file=sys.stderr)
        return 2
    except (JetDomainError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

    message = _schema_error(report, "report.schema.json")
    if message is not None:  # defensive; a bug if it fires
        print(f"internal report error: {message}", file=sys.stderr)
        return 3
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
