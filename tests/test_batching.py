"""Batched evaluation over sample points agrees with single-point calls.

The 4-D and surface pipelines evaluate every expression once per sweep on
jets with a leading point axis.  Each residual array they return must be
the arrays of single-point calls stacked on that axis, bit for bit and
with NaN at the same entries; so must the jet kernel's results.  A maximum
that the library reduces itself (the divisor, gauge and quadrature
deciders) must be the largest of the single-point ones.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdconformal.conformal import (MetricBuilder, build_null_kahler,
                                   curvature_report, frobenius_residual,
                                   killing_report)
from sdconformal.expr import parse
from sdconformal.jets import Jet, JetSpace, max_abs, stack
from sdconformal.minitwistor import (WeightedCongruence, _weyl_gamma_jets,
                                     divisor_two_report,
                                     projective_field_residual)
from sdconformal.pairs import (ProjectivePair, _quadrature_residuals,
                               build_lax,
                               dw_quadrature_build, gauge_reduction_report,
                               lax_residual, lie_bracket,
                               projective_pair_residual,
                               twist_free_normal_form)
from sdconformal.projective import COORDS, ProjectiveSurface, _pow
from sdconformal.sampling import halton_points
from test_acceptance import _frobenius_scene
from oracles import (abelian_pair_residual, area_connection_curvature,
                     congruence_from_slope, cotton, evaluate, frame_values,
                     null_kahler_check, point_rows, point_slices,
                     projective_change, sample_set, trivial_pair, unstack)

SCENES = Path(__file__).resolve().parents[1] / "scenes"
FLAT = ProjectiveSurface.flat()
T_TRANSLATION = ("0", "0", "1", "0")


def _box(scene):
    return json.loads((SCENES / f"{scene}.json").read_text())["sampling"]["box"]


def _null_kahler(a, c, f, box):
    nk = build_null_kahler(a, c, f)
    return nk["surface"], nk["pair"], f, box, nk["check"]


def _seeded_null_kahler(seed=11):
    rng = random.Random(seed)
    r = [f"{rng.uniform(-0.4, 0.4):.4f}" for _ in range(5)]
    return _null_kahler(f"{r[0]}*x + {r[1]}*y", f"{r[2]}*x - {r[3]}*y",
                        f"1 + {r[4]}*x*z", _box("nullkahler_random"))


def _cases():
    """name -> (surface, pair, conformal factor, sampling box, structure check)."""
    hk_pair = ProjectivePair(("t", "z"), alpha0=["0.4*x*z", "0"],
                             alpha1=["0", "0"], phi0=["0", "1"],
                             phi1=["1", "0"])
    # the w1-column pivot of the frame solve is phi1 for |y| > 1, phi0 below
    pivot_pair = ProjectivePair(("w1", "w2"), alpha0=["0.3*w2", "0"],
                                alpha1=["0", "0.2*w1"], phi0=["1", "0.3"],
                                phi1=["y", "1"])
    return {
        "flat": (FLAT, trivial_pair(), None, _box("flat"), None),
        "nullkahler_hk": (ProjectiveSurface({(1, 0, 0): "0.4*x"}), hk_pair,
                          "1/z^2", _box("nullkahler_hk"), None),
        "nullkahler_random": _null_kahler("0.3*x + 0.1*y", "0.2*x - 0.4*y",
                                          "1 + 0.25*x*z",
                                          _box("nullkahler_random")),
        "dw_twist": (FLAT, dw_quadrature_build(FLAT, "y/x", 0.7, "1", "z"),
                     None, _box("dw_twist"), None),
        "nullkahler_seeded": _seeded_null_kahler(),
        "pivot_change": (FLAT, pivot_pair, "1 + 0.1*x*w2",
                         {"x": [-1, 1], "y": [0.2, 2.0], "w1": [-1, 1],
                          "w2": [-1, 1]}, None),
    }


CASES = _cases()


def _points(name, count=24):
    _, pair, _, box, _ = CASES[name]
    return halton_points(pair.coords, box, count, seed=3)


def _assert_same(got, want):
    """The same shape, NaN at the same entries and the same bits at the
    others."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = _nan(want)
    assert np.array_equal(_nan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _nan(a):
    return np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.shape, bool)


def _assert_stacked(batched, singles):
    """Each array of the dict `batched` is the same key's arrays of the
    single-point dicts `singles` joined on the point axis (the one-point
    sample sets of `point_slices`), entry by entry."""
    assert batched.keys() == singles[0].keys()
    for key, value in batched.items():
        _assert_same(value, np.concatenate([s[key] for s in singles]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_curvature_report_matches_single_points(name):
    _, pair, factor, _, _ = CASES[name]
    builder = MetricBuilder(pair=pair, factor=factor)
    points = _points(name)
    g, orientation = builder.jets(points)
    batched = curvature_report(g, orientation)
    singles = []
    for p in point_rows(points):
        g, orientation = builder.jets(p)
        singles.append(curvature_report(g, orientation))
    # a point of plain numbers has batch shape (): the singles stack
    for key, values in batched.items():
        _assert_same(values, np.stack([s[key] for s in singles]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_killing_report_matches_single_points(name):
    _, pair, factor, _, _ = CASES[name]
    builder = MetricBuilder(pair=pair, factor=factor)
    points = _points(name)
    fields = {"T": T_TRANSLATION}
    batched = killing_report(builder.jets(points, order=1)[0], fields,
                             points)["T"]
    singles = [killing_report(builder.jets(p, order=1)[0], fields, p)["T"]
               for p in point_slices(points)]
    _assert_stacked(batched, singles)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lax_residual_matches_single_points(name):
    P, pair, _, _, _ = CASES[name]
    lax = build_lax(P, pair)
    points = _points(name)
    batched = lax_residual(lax, points)
    _assert_stacked(batched, [lax_residual(lax, p)
                              for p in point_slices(points)])


@pytest.mark.parametrize("name", ["nullkahler_random", "nullkahler_seeded"])
def test_null_kahler_check_matches_single_points(name):
    _, pair, factor, _, check = CASES[name]
    builder = MetricBuilder(pair=pair, factor=factor)
    points = _points(name)
    batched = null_kahler_check(check, builder, points)
    _assert_stacked(batched, [null_kahler_check(check, builder, p)
                              for p in point_slices(points)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_entries_match_single_points():
    # a factor that overflows at some sample points, and a field whose
    # components do: NaN and infinities must sit at the single points'
    # entries
    nk = build_null_kahler("0.3*x", "0.2*y", "1 + 1e308*x*z*z*z")
    points = _points("nullkahler_random")
    g, orientation = nk["metric"].jets(points)
    batched = curvature_report(g, orientation)
    assert 0 < np.isnan(batched["riemann"]).sum() < batched["riemann"].size
    _assert_stacked(batched, [curvature_report(*nk["metric"].jets(p))
                              for p in point_slices(points)])
    fields = {"T": ("0", "0", "1e200*x*x", "0")}
    batched = killing_report(nk["metric"].jets(points, order=1)[0], fields,
                             points)["T"]
    assert np.isinf(batched["exact_killing"]).any()
    _assert_stacked(batched, [
        killing_report(nk["metric"].jets(p, order=1)[0], fields, p)["T"]
        for p in point_slices(points)])
    # the slope's cube overflows where |x| > 0.56, and the flat spray's
    # zero coefficient times it is NaN there
    points = _surface_points("curved")
    res = FLAT.congruence_residual("1e103*x", points)
    assert 0 < np.isnan(res).sum() < res.size
    _assert_same(res, np.concatenate([FLAT.congruence_residual("1e103*x", p)
                                      for p in point_slices(points)]))


def test_pivot_row_changes_across_the_box():
    _, pair, _, _, _ = CASES["pivot_change"]
    builder = MetricBuilder(pair=pair)
    frames = [frame_values(builder, p)
              for p in point_rows(_points("pivot_change"))]
    # rows 0 and 1 are phi0 and phi1; column 2 is their w1 component
    larger = {abs(M[1][2]) > abs(M[0][2]) for M in frames}
    assert larger == {True, False}


# -- the surface side --------------------------------------------------------
#
# Every residual below is an array of per-point values computed by the
# same elementwise operations, so batched and single-point results agree
# bit for bit.


def _scene(name):
    return json.loads((SCENES / f"{name}.json").read_text())


def _scene_surface(name):
    return ProjectiveSurface.from_spray(*_scene(name)["projective"]["spray"])


def _random_surface(seed):
    """A surface whose six Christoffels are seeded random quadratics."""
    rng = random.Random(seed)
    gamma = {}
    for key in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                (1, 1, 1)):
        c = [f"{rng.uniform(-1, 1):.5f}" for _ in range(4)]
        gamma[key] = f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x*y"
    return ProjectiveSurface(gamma)


CURVED = _random_surface(5)
# a quadratic field on a curved surface: its flow permutes no geodesics
# and the residual is O(1), where a reordered sum would show
NON_PROJECTIVE = (CURVED, ("0.7*x^2 - 0.3*y", "x*y + 0.4*y^2"))


def _surface_points(scene, count=24):
    """A sample set over (x, y) in the scene's box, or in [-1, 1]^2 for
    "curved"."""
    box = ({"x": [-1, 1], "y": [-1, 1]} if scene == "curved"
           else _scene(scene)["sampling"]["box"])
    return halton_points(COORDS, box, count, seed=3)


# name -> (surface, slope, scene whose box the points fill)
CONGRUENCES = {
    "flat": (_scene_surface("flat"), "0", "flat"),
    "burgers": (_scene_surface("burgers"), "y/x", "burgers"),
    "twistfree": (_scene_surface("twistfree"), "y/x", "twistfree"),
    "dw_twist": (_scene_surface("dw_twist"), "y/x", "dw_twist"),
    "curved": (CURVED, "0.3*x - 0.2*y^2", "curved"),
    # a(lam) = lam^3 on lines through the origin: the residual is the
    # cube of the slope, whose rounding shows
    "cubic": (ProjectiveSurface.from_spray("0", "0", "0", "1"), "y/x",
              "burgers"),
}

FIELDS = {
    "projective_field": [(_scene_surface("projective_field"), tuple(v))
                         for v in _scene("projective_field")
                         ["surface_fields"].values()],
    "burgers": [(_scene_surface("burgers"), ("x", "y"))],
    "curved": [NON_PROJECTIVE],
}


def _divisors():
    out = {}
    for name in ("divisor2_roots", "divisor2_trivial"):
        entries = _scene(name)["divisor2"]
        out[name] = (_scene_surface(name),
                     [WeightedCongruence(e["phi"], e["rho"]) for e in entries],
                     name)
    # the root congruences on a projectively changed structure
    out["divisor2_shifted"] = (
        projective_change(_scene_surface("divisor2_roots"), "0.1*y", "0.2*x"),
        out["divisor2_roots"][1], "divisor2_roots")
    return out


DIVISORS = _divisors()


def _surface_pairs():
    flat = _scene("flat")["pair"]
    twistfree = _scene("twistfree")
    dw = _scene("dw_twist")["build"]
    P = _scene_surface("dw_twist")
    return {
        "flat": (_scene_surface("flat"),
                 ProjectivePair(flat["fiber"], flat["alpha0"], flat["alpha1"],
                                flat["phi0"], flat["phi1"]), "flat"),
        "twistfree": (_scene_surface("twistfree"),
                      twist_free_normal_form(_scene_surface("twistfree"),
                                             twistfree["build"]["beta"]),
                      "twistfree"),
        "dw_twist": (P, dw_quadrature_build(P, dw["gamma"], dw["c"], dw["H"],
                                            dw["G"]),
                     "dw_twist"),
        # a pair that is not integrable over a curved surface
        "curved": (CURVED, ProjectivePair(("t", "z"),
                                          ["0.2*x*z", "z^2"], ["t", "0.1*y"],
                                          ["1", "0.3*x*t"], ["0.2*z", "1"],
                                          c0="0.1*x", c1="y"), "dw_twist"),
    }


SURFACE_PAIRS = _surface_pairs()


def _pair_points(name, count=24):
    _, pair, scene = SURFACE_PAIRS[name]
    return halton_points(pair.coords, _scene(scene)["sampling"]["box"],
                         count, seed=3)


def _max_of_singles(fn, points):
    return max(fn(p) for p in point_slices(points))


def _joined(fn, points):
    """The arrays `fn` returns on the one-point sample sets of `points`,
    joined on the point axis."""
    return np.concatenate([fn(p) for p in point_slices(points)])


# Per-point references: the loops the batched code replaced, in numpy
# scalars.  A single point runs the batched code too, so these are what
# pin a kernel that rounds differently from the scalar one (numpy's
# array power, a matmul in place of the ordered bracket sum).


def _congruence_reference(P, beta, pt):
    space = JetSpace(COORDS, 1)
    env = space.seed(pt)
    b = evaluate(parse(beta, COORDS), env, space=space)
    a = [evaluate(c, env, space=space).value for c in P.spray_coeffs()]
    bx, by = b.gradient()
    bv = b.value
    return abs(bx + bv * by - (a[0] + a[1]*bv + a[2]*bv**2 + a[3]*bv**3))


def _field_reference(P, V, pt, lambdas=(0.0, 0.5, -0.5, 1.0, -1.0, 2.0,
                                        -2.0)):
    vars3 = COORDS + ("lambda",)
    V = [parse(c, COORDS) for c in V]
    lam = parse("lambda", vars3)
    lamdot = (V[1].diff("x") + lam * (V[1].diff("y") - V[0].diff("x"))
              - lam * lam * V[0].diff("y"))
    lift = [V[0], V[1], lamdot]
    spray = [parse("1", vars3), lam, P.spray_cubic()]
    space = JetSpace(vars3, 1)
    worst = 0.0
    for lv in lambdas:
        env = space.seed({**pt, "lambda": lv})
        lj = [evaluate(c, env, space=space) for c in lift]
        sj = [evaluate(c, env, space=space) for c in spray]
        bracket = np.zeros(3)
        sval = np.array([c.value for c in sj])
        for i in range(3):
            acc = 0.0
            for k, name in enumerate(vars3):
                acc += (lj[k].value * sj[i].derivative(name).value
                        - sj[k].value * lj[i].derivative(name).value)
            bracket[i] = acc
        coef = np.linalg.lstsq(sval.reshape(-1, 1), bracket, rcond=None)[0]
        worst = max(worst, np.max(np.abs(bracket - coef[0] * sval)))
    return worst


def _pair_reference(P, pair, pt):
    nf = len(pair.fiber)
    space = JetSpace(pair.coords, 1)
    base_space = JetSpace(COORDS, 0)
    env = space.seed(dict(pt))
    benv = base_space.seed({"x": pt["x"], "y": pt["y"]})
    gv = [[[evaluate(P.christoffel(A, B, C), benv, space=base_space).value
            for C in range(2)] for B in range(2)] for A in range(2)]
    g0 = gv[0][0][0] + gv[1][0][1]
    g1 = gv[0][1][0] + gv[1][1][1]
    c0, c1 = (evaluate(c, benv, space=base_space).value
              for c in pair.c_gauge)
    a = [[evaluate(c, env, space=space) for c in v] for v in pair.alpha]
    f = [[evaluate(c, env, space=space) for c in v] for v in pair.phi]

    def vbracket(u, v):
        out = np.zeros(nf)
        for i in range(nf):
            gv_i = v[i].gradient()[2:2 + nf]
            gu_i = u[i].gradient()[2:2 + nf]
            for j in range(nf):
                out[i] += u[j].value * gv_i[j] - v[j].value * gu_i[j]
        return out

    def dbase(vec, idx):
        return np.array([comp.gradient()[idx] for comp in vec])

    def values(vec):
        return np.array([comp.value for comp in vec])

    phi0v, phi1v = values(f[0]), values(f[1])
    eq1 = (dbase(f[0], 0) + vbracket(a[0], f[0])
           + (c0 - 2.0 / 3.0 * g0) * phi0v
           + gv[0][0][0] * phi0v + gv[1][0][0] * phi1v)
    eq2 = (dbase(f[1], 0) + vbracket(a[0], f[1])
           + (c0 - 2.0 / 3.0 * g0) * phi1v
           + gv[0][0][1] * phi0v + gv[1][0][1] * phi1v
           + dbase(f[0], 1) + vbracket(a[1], f[0])
           + (c1 - 2.0 / 3.0 * g1) * phi0v
           + gv[0][1][0] * phi0v + gv[1][1][0] * phi1v)
    eq3 = (dbase(f[1], 1) + vbracket(a[1], f[1])
           + (c1 - 2.0 / 3.0 * g1) * phi1v
           + gv[0][1][1] * phi0v + gv[1][1][1] * phi1v)
    return float(np.abs(np.concatenate([eq1, eq2, eq3])).max())


@pytest.mark.parametrize("name", sorted(CONGRUENCES))
def test_congruence_residual_matches_single_points(name):
    P, beta, scene = CONGRUENCES[name]
    points = _surface_points(scene, 64)
    singles = [max_abs(P.congruence_residual(beta, p))
               for p in point_slices(points)]
    assert singles == [_congruence_reference(P, beta, p)
                       for p in point_rows(points)]
    _assert_same(P.congruence_residual(beta, points),
                 _joined(lambda p: P.congruence_residual(beta, p), points))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_projective_field_residual_matches_single_points(name):
    points = _surface_points(name, 64)
    for P, V in FIELDS[name]:
        singles = [max_abs(projective_field_residual(P, V, p))
                   for p in point_slices(points)]
        assert singles == [_field_reference(P, V, p)
                           for p in point_rows(points)]
        _assert_same(projective_field_residual(P, V, points),
                     _joined(lambda p: projective_field_residual(P, V, p),
                             points))


def test_non_projective_field_residual_is_order_one():
    P, V = NON_PROJECTIVE
    assert max_abs(projective_field_residual(
        P, V, _surface_points("curved"))) > 0.1


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_divisor_two_report_matches_single_points(name):
    P, (c1, c2), scene = DIVISORS[name]
    points = _surface_points(scene)
    batched = divisor_two_report(P, c1, c2, points)
    singles = [divisor_two_report(P, c1, c2, p) for p in point_slices(points)]
    _assert_same(batched["dc_residual"],
                 np.concatenate([s["dc_residual"] for s in singles]))
    for key in ("sym_r", "skew_r", "f_sum", "f_diff"):
        assert batched[key] == max(s[key] for s in singles), key


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_weyl_gamma_jets_match_single_points(name):
    P, (c1, c2), scene = DIVISORS[name]
    points = _surface_points(scene)
    gam, ct, consistency = _weyl_gamma_jets(P, c1, c2, points)
    singles = [_weyl_gamma_jets(P, c1, c2, p) for p in point_rows(points)]
    _assert_same(consistency, np.stack([s[2] for s in singles]))
    for batched, single in ((gam, [s[0] for s in singles]),
                            (ct, [s[1] for s in singles])):
        want = np.array([stack(s).coeffs for s in single])
        assert np.array_equal(
            np.broadcast_to(stack(batched).coeffs, want.shape), want)


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_abelian_pair_residual_matches_single_points(name):
    P, congs, scene = DIVISORS[name]
    points = _surface_points(scene)
    for cong in congs:
        batched = abelian_pair_residual(P, cong.phi, cong.rho, points)
        assert batched == _max_of_singles(
            lambda p: abelian_pair_residual(P, cong.phi, cong.rho, p), points)


@pytest.mark.parametrize("name", sorted(SURFACE_PAIRS))
def test_projective_pair_residual_matches_single_points(name):
    P, pair, _ = SURFACE_PAIRS[name]
    points = _pair_points(name, 64)
    singles = [max_abs(projective_pair_residual(P, pair, p))
               for p in point_slices(points)]
    assert singles == [_pair_reference(P, pair, p) for p in point_rows(points)]
    batched = projective_pair_residual(P, pair, points)
    _assert_same(batched, _joined(
        lambda p: projective_pair_residual(P, pair, p), points))
    if name == "curved":
        assert max_abs(batched) > 0.1


@pytest.mark.parametrize("name", sorted(SURFACE_PAIRS))
def test_gauge_reduction_report_matches_single_points(name):
    _, pair, _ = SURFACE_PAIRS[name]
    points = _pair_points(name)
    flags, values = gauge_reduction_report(pair, points)
    singles = [gauge_reduction_report(pair, p) for p in point_slices(points)]
    for key, value in values.items():
        assert value == max(s[1][key] for s in singles), key
    for key, flag in flags.items():
        assert flag == all(s[0][key] for s in singles), key


@pytest.mark.parametrize("name", sorted(SURFACE_PAIRS))
def test_area_connection_curvature_matches_single_points(name):
    _, pair, _ = SURFACE_PAIRS[name]
    points = _pair_points(name)
    assert area_connection_curvature(pair, points) == _max_of_singles(
        lambda p: area_connection_curvature(pair, p), points)


@pytest.mark.parametrize("H,G", [("1", "z"),
                                 ("1 + 0.3*x*z", "z + 0.1*y*z^2")])
def test_quadrature_residuals_match_single_points(H, G):
    allowed = ("x", "y", "t", "z")
    H, G = parse(H, allowed), parse(G, allowed)
    E = parse("0.2*x*z - y", allowed)
    F = parse("z^2", allowed)
    points = _pair_points("dw_twist")
    batched = _quadrature_residuals(H, G, E, F, points)
    singles = [_quadrature_residuals(H, G, E, F, p)
               for p in point_slices(points)]
    assert batched == tuple(max(s[k] for s in singles) for k in range(2))


@pytest.mark.parametrize("P", [ProjectiveSurface.flat(), CURVED],
                         ids=["flat", "curved"])
def test_surface_curvature_accepts_point_arrays(P):
    points = _surface_points("curved")
    rows = point_rows(points)
    r = P.ricci_values(points)
    assert r.shape == (len(rows), 2, 2)
    assert np.array_equal(r, [P.ricci_values(p) for p in rows])
    g = unstack(P.christoffel_jets(points, 2), 3)
    R = unstack(P.curvature_endomorphism(points), 2)
    for n, p in enumerate(rows):
        single = unstack(P.christoffel_jets(p, 2), 3)
        for A, B, C in np.ndindex(2, 2, 2):
            coeffs = np.broadcast_to(g[A][B][C].coeffs, (len(rows), 6))
            assert np.array_equal(coeffs[n], single[A][B][C].coeffs)
        single = unstack(P.curvature_endomorphism(p), 2)
        for A, B in np.ndindex(2, 2):
            coeffs = np.broadcast_to(R[A][B].coeffs, (len(rows), 3))
            assert np.array_equal(coeffs[n], single[A][B].coeffs)


def test_pow_is_the_numpy_scalar_power():
    # numpy's array power rounds x^2 and x^3 differently from the scalar
    # power on a few percent of arguments
    x = np.random.default_rng(7).standard_normal(20000) * 3.0
    for n in (2, 3):
        assert np.array_equal(_pow(x, n), [np.float64(v) ** n for v in x])
    assert _pow(np.float64(1.5), 3) == np.float64(1.5) ** 3


def test_single_point_calls_still_work():
    p = point_rows(_surface_points("curved"))[0]
    assert CURVED.ricci_values(p).shape == (2, 2)
    assert cotton(CURVED, p).shape == (2,)
    cong = congruence_from_slope("y/x")
    assert abelian_pair_residual(ProjectiveSurface.flat(), cong.phi,
                                 cong.rho, {"x": 0.8, "y": 1.3}) < 1e-13


# -- distributions -----------------------------------------------------------


def _frobenius_reference(fields, coords, points):
    """The per-point loop `frobenius_residual` replaced."""
    fields = [[parse(c, coords) for c in f] for f in fields]
    space = JetSpace(coords, 1)
    worst = 0.0
    for pt in point_rows(points):
        env = space.seed(pt)
        jets = [[evaluate(c, env, space=space) for c in f] for f in fields]
        vals = np.array([[c.value for c in f] for f in jets])
        grads = np.array([[c.gradient() for c in f] for f in jets])
        if np.linalg.matrix_rank(vals) < len(fields):
            raise np.linalg.LinAlgError("dependent fields at sample point")
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                br = grads[j] @ vals[i] - grads[i] @ vals[j]
                coef, *_ = np.linalg.lstsq(vals.T, br, rcond=None)
                perp = br - vals.T @ coef
                worst = max(worst, float(np.abs(perp).max()))
    return worst


def _random_distribution(seed, count):
    """`count` fields on (x, y, t, z) with seeded random quadratic
    components."""
    rng = random.Random(seed)

    def component():
        c = [f"{rng.uniform(-1, 1):.5f}" for _ in range(4)]
        return f"{c[0]} + {c[1]}*x*t + {c[2]}*y^2 + {c[3]}*z"

    return [[component() for _ in range(4)] for _ in range(count)]


def _distributions():
    flat = _scene("flat")
    tilted = _frobenius_scene(1e-3)[0]
    out = {"flat": (flat["distributions"]["beta_planes"], flat["coords"],
                    flat["sampling"]["box"]),
           "tilted": (tilted["distributions"]["tilted"], tilted["coords"],
                      tilted["sampling"]["box"])}
    for seed in range(3):
        for count in (2, 3):
            out[f"random{count}-{seed}"] = (_random_distribution(seed, count),
                                            tilted["coords"],
                                            tilted["sampling"]["box"])
    return out


DISTRIBUTIONS = _distributions()


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_frobenius_residual_matches_the_per_point_loop(name):
    fields, coords, box = DISTRIBUTIONS[name]
    points = halton_points(coords, box, 48, seed=3)
    res = frobenius_residual(fields, coords, points)
    assert max_abs(res) == _frobenius_reference(fields, coords, points)
    _assert_same(res, _joined(
        lambda p: frobenius_residual(fields, coords, p), points))
    if name.startswith("random"):
        assert max_abs(res) > 0.01


def test_frobenius_dependent_fields_at_a_later_point():
    coords = ("x", "y", "t", "z")
    fields = [["1", "0", "0", "0"], ["0", "x - 0.5", "0", "0"]]
    rows = [{"x": 0.25, "y": 0.0, "t": 0.0, "z": 0.0},
            {"x": 0.5, "y": 0.5, "t": 0.5, "z": 0.5},
            {"x": 0.75, "y": 0.0, "t": 0.0, "z": 0.0}]
    points = sample_set(rows)
    assert max_abs(frobenius_residual(fields, coords,
                                      sample_set(rows[:1]))) == 0.0
    for fn in (frobenius_residual, _frobenius_reference):
        with pytest.raises(np.linalg.LinAlgError, match="^dependent fields"):
            fn(fields, coords, points)


def test_lie_bracket_of_coordinate_fields():
    # U = x d/dy, V = d/dx: [U, V] = -d/dy, from jet slots (value, d/dx, d/dy)
    space = JetSpace(("x", "y"), 1)
    u = Jet(space, np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0]]))   # at x = 2
    v = Jet(space, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.array_equal(lie_bracket(u, v), [0.0, -1.0])
    assert np.array_equal(lie_bracket(v, u), [0.0, 1.0])


# -- the jet kernel ----------------------------------------------------------


@st.composite
def _batched_operands(draw):
    nvars = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.integers(min_value=0, max_value=3))
    space = JetSpace(tuple("abcde"[:nvars]), order)
    npts = draw(st.integers(min_value=1, max_value=5))
    size = npts * len(space)
    coeff = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
    a = np.array(draw(st.lists(coeff, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(coeff, min_size=size, max_size=size)))
    a = a.reshape(npts, len(space))
    b = b.reshape(npts, len(space))
    # constant terms away from zero, so that reciprocal is defined
    a[:, 0] = np.where(np.abs(a[:, 0]) < 0.5, 0.5, a[:, 0])
    return space, a, b, draw(st.sampled_from(("product", "reciprocal", "exp")))


def _apply(op, x, y):
    if op == "product":
        return x * y
    return getattr(x, op)()


@settings(max_examples=150, deadline=None)
@given(_batched_operands())
def test_batched_jet_ops_equal_single_points_bitwise(operands):
    space, a, b, op = operands
    batched = _apply(op, Jet(space, a), Jet(space, b)).coeffs
    for n in range(len(a)):
        single = _apply(op, Jet(space, a[n]), Jet(space, b[n])).coeffs
        assert single.shape == (len(space),)
        assert np.array_equal(batched[n], single)


# -- a mapping of plain numbers is one point ---------------------------------
#
# A residual given a point of batch shape () reports what it reports for
# the one-point sample set {name: values[n:n + 1]} of the same point.


def _bits(x):
    return np.asarray(x).tobytes()


def _scalar_and_slice(points, n):
    return ({name: float(v[n]) for name, v in points.items()},
            {name: v[n:n + 1] for name, v in points.items()})


@pytest.mark.parametrize("name", sorted(SURFACE_PAIRS))
def test_lax_residual_takes_plain_numbers(name):
    P, pair, _ = SURFACE_PAIRS[name]
    lax = build_lax(P, pair)
    points = _pair_points(name, 4)
    for n in range(4):
        scalar, one = _scalar_and_slice(points, n)
        got, want = lax_residual(lax, scalar), lax_residual(lax, one)
        assert got["b_coeffs"].shape == (3,)
        assert _bits(got["b_coeffs"]) == _bits(want["b_coeffs"][0])
        for key in ("residual", "cubic"):
            assert _bits(got[key]) == _bits(want[key])
    if name == "curved":
        assert max_abs(want["residual"]) > 0.01


@pytest.mark.parametrize("name", sorted(SURFACE_PAIRS))
def test_pair_residuals_take_plain_numbers(name):
    P, pair, _ = SURFACE_PAIRS[name]
    points = _pair_points(name, 4)
    for n in range(4):
        scalar, one = _scalar_and_slice(points, n)
        assert (_bits(projective_pair_residual(P, pair, scalar))
                == _bits(projective_pair_residual(P, pair, one)))
        (flags, values), (want_flags, want) = (
            gauge_reduction_report(pair, scalar),
            gauge_reduction_report(pair, one))
        assert flags == want_flags
        assert {k: _bits(v) for k, v in values.items()} == {
            k: _bits(v) for k, v in want.items()}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_frobenius_residual_takes_plain_numbers(name):
    fields, coords, box = DISTRIBUTIONS[name]
    points = halton_points(coords, box, 4, seed=3)
    for n in range(4):
        scalar, one = _scalar_and_slice(points, n)
        assert (_bits(frobenius_residual(fields, coords, scalar))
                == _bits(frobenius_residual(fields, coords, one)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_projective_field_residual_takes_plain_numbers(name):
    points = _surface_points(name, 4)
    for P, V in FIELDS[name]:
        for n in range(4):
            scalar, one = _scalar_and_slice(points, n)
            assert (_bits(projective_field_residual(P, V, scalar))
                    == _bits(projective_field_residual(P, V, one)))
