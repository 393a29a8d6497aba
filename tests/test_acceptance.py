"""End-to-end acceptance sweep.

Every check here runs the full pipelines (library and command line) on
Halton-sampled scenes at jet order 3 and asserts the headline residual
budgets: flat baselines, invariance laws, the constructive builders,
the structure-family identities, the curvature dichotomy for divisor
pairs, gauge classification, and negative controls with linear residual
scaling.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sdconformal.expr import as_expression, parse
from sdconformal.jets import JetSpace, max_abs
from sdconformal.projective import ProjectiveSurface, COORDS
from sdconformal.pairs import (ProjectivePair, build_lax, lax_residual,
                               projective_pair_residual,
                               twist_free_normal_form, dw_quadrature_build,
                               gauge_reduction_report)
from sdconformal.conformal import (MetricBuilder, curvature_report,
                                   hodge_star_operator, killing_report,
                                   frobenius_residual, build_null_kahler)
from sdconformal.minitwistor import WeightedCongruence, divisor_two_report
from sdconformal.sampling import halton_points
from sdconformal.cli import (TOLERANCES, RunContext, load_scene,
                             main as cli_main)
from sdconformal.cli import (_pair as cli_pair, _pair_metric as cli_metric,
                             _surface as cli_surface)
from oracles import (DW_POINT, TWISTFREE_POINT, area_connection_curvature,
                     certify_selfdual, congruence_from_slope, cotton,
                     eval_jet, extract, frame_values, null_kahler_check,
                     point_rows, projective_change, ricci_values_at,
                     sample_set, trivial_pair, unstack)
from test_cli import run

FLAT = ProjectiveSurface({})


def ex(value):
    """Test data (text, a number or a list of them) as Expressions."""
    return as_expression(value, ("x", "y", "t", "z", "w1", "w2"), "test data")

SCENES = Path(__file__).resolve().parents[1] / "scenes"

BOX4 = {"x": [0.5, 1.5], "y": [1.1, 2.9], "t": [0.0, 1.0], "z": [0.4, 1.4]}


def _pts4(count=32, seed=0):
    return halton_points(("x", "y", "t", "z"), BOX4, count, seed=seed,
                         exclusions=())


def _surface_pts(count=32, seed=0, box=None):
    box = box or {"x": [0.5, 1.5], "y": [1.1, 2.9]}
    return halton_points(("x", "y"), box, count, seed=seed,
                         exclusions=())


def _check_value(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c["value"]
    raise KeyError(name)


def _write_scene(tmp_path, name, scene):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scene))
    return str(path)


def _pair_section(pair):
    return {
        "fiber": list(pair.fiber),
        "alpha0": [str(c) for c in pair.alpha[0]],
        "alpha1": [str(c) for c in pair.alpha[1]],
        "phi0": [str(c) for c in pair.phi[0]],
        "phi1": [str(c) for c in pair.phi[1]],
        "c0": str(pair.c_gauge[0]),
        "c1": str(pair.c_gauge[1]),
    }


def _random_polynomial(rng, degree=3, scale=1.0):
    terms = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = scale * rng.uniform(-1, 1)
            terms.append(f"{c:+.6f}*x^{i}*y^{j}".replace("x^0*", "")
                         .replace("*y^0", ""))
    return parse("".join(terms).lstrip("+"), COORDS)


def _random_surface(rng):
    gamma = {}
    for A in range(2):
        for B in range(2):
            for C in range(B, 2):
                gamma[(A, B, C)] = _random_polynomial(rng, degree=2,
                                                      scale=0.5)
    return ProjectiveSurface(gamma)


# -- 1. flat baseline ---------------------------------------------------------


class TestFlatBaseline:
    def test_trivial_pair_has_zero_bracket_and_flat_metric(self):
        pair = trivial_pair()
        pts = halton_points(("x", "y", "w1", "w2"),
                            {"x": [-1, 1], "y": [-1, 1],
                             "w1": [-1, 1], "w2": [-1, 1]}, 32,
                            seed=0, exclusions=())
        res = lax_residual(build_lax(FLAT, pair), pts)
        assert max_abs(res["residual"]) == 0.0
        assert max_abs(res["cubic"]) == 0.0
        builder = MetricBuilder(pair=pair, factor=None)
        for pt in point_rows(pts):
            g, orientation = builder.jets(pt)
            rep = curvature_report(g, orientation)
            for key in ("riemann", "ricci", "weyl_plus", "weyl_minus",
                        "scalar", "star_defect"):
                assert max_abs(rep[key]) < 1e-12


# -- 2. spray invariance ------------------------------------------------------


class TestSprayInvariance:
    def test_twenty_random_projective_changes(self):
        rng = np.random.default_rng(101)
        space = JetSpace(COORDS, 0)
        for _ in range(20):
            P = _random_surface(rng)
            Q = projective_change(P, _random_polynomial(rng),
                                  _random_polynomial(rng))
            for pt in rng.uniform(-0.8, 0.8, size=(3, 2)):
                env = space.seed({"x": pt[0], "y": pt[1]})
                for a, b in zip(P.spray_coeffs(), Q.spray_coeffs()):
                    av = eval_jet(a, space, {"x": pt[0], "y": pt[1]}).value
                    bv = eval_jet(b, space, {"x": pt[0], "y": pt[1]}).value
                    assert abs(av - bv) < 1e-12


# -- 3. curvature transformation laws ----------------------------------------


class TestCurvatureTransformation:
    def test_ricci_shift_and_cotton_invariance(self):
        from oracles import evaluate
        rng = np.random.default_rng(103)
        for _ in range(20):
            P = _random_surface(rng)
            g0 = _random_polynomial(rng)
            g1 = _random_polynomial(rng)
            Q = projective_change(P, g0, g1)
            pt = dict(zip(COORDS, rng.uniform(-0.8, 0.8, size=2)))
            space = JetSpace(COORDS, 1)
            env = space.seed(pt)
            gj = [evaluate(g0, env, space=space),
                  evaluate(g1, env, space=space)]
            gv = np.array([j.value for j in gj])
            gam = unstack(P.christoffel_jets(pt, 0), 3)
            dgam = np.zeros((2, 2))
            for A in range(2):
                for B in range(2):
                    dgam[A][B] = gj[B].derivative(COORDS[A]).value
                    for E in range(2):
                        dgam[A][B] -= gam[E][A][B].value * gv[E]
            want = ricci_values_at(P, pt) + dgam - np.outer(gv, gv)
            got = ricci_values_at(Q, pt)
            scale = 1.0 + np.abs(want).max()
            assert np.abs(got - want).max() / scale < 1e-10
            ca, cb = cotton(P, pt), cotton(Q, pt)
            assert np.abs(ca - cb).max() < 1e-9 * (1.0 + np.abs(ca).max())


# -- 4. congruence-built pairs certify ----------------------------------------


GUARDS_YX = [{"expr": "y/x - 1", "guard": 0.05},
             {"expr": "y/x - 2", "guard": 0.05}]


class TestCongruencePipelines:
    CASES = [
        # (spray, congruence, exclusions, expected multiplier -a'/3)
        (["0", "0", "0", "0"], "y/x", GUARDS_YX, (0.0, 0.0, 0.0)),
        (["0", "1", "0", "0"], "exp(x)",
         [{"expr": "exp(x) - 2", "guard": 0.05}], (-1.0 / 3.0, 0.0, 0.0)),
    ]

    @pytest.mark.parametrize("spray,beta,excl,want_b", CASES)
    def test_normal_form_certifies_with_fitted_multiplier(
            self, capsys, tmp_path, spray, beta, excl, want_b):
        scene = {
            "name": "normal-form",
            "coords": ["x", "y", "z"],
            "projective": {"spray": spray},
            "build": {"beta": beta},
            "sampling": {"box": {k: BOX4[k] for k in ("x", "y", "z")},
                         "count": 32, "seed": 0, "exclusions": excl},
        }
        path = _write_scene(tmp_path, "normal_form", scene)
        code, report = run(capsys, "build-twistfree", path)
        assert code == 0
        assert _check_value(report, "lax_residual") < 1e-10
        assert report["fitted"]["b_coeffs"] == pytest.approx(want_b,
                                                             abs=1e-9)

    @pytest.mark.parametrize("spray,beta,excl,want_b", CASES)
    def test_quadrature_metric_is_selfdual(self, capsys, tmp_path, spray,
                                           beta, excl, want_b):
        P = ProjectiveSurface.from_spray(*ex(spray))
        pair = dw_quadrature_build(P, *ex([beta, 0.0, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        scene = {
            "name": "quadrature-metric",
            "coords": ["x", "y", "t", "z"],
            "projective": {"spray": spray},
            "pair": _pair_section(pair),
            "sampling": {"box": BOX4, "count": 32, "seed": 0,
                         "exclusions": excl},
        }
        path = _write_scene(tmp_path, "quad_metric", scene)
        code, report = run(capsys, "certify-selfdual", path)
        assert code == 0
        assert _check_value(report, "lax_residual") < 1e-10
        assert _check_value(report, "weyl_minus") < 1e-8


# -- 5. the two-function structure family -------------------------------------


class TestStructureFamily:
    def test_five_random_members(self):
        rng = np.random.default_rng(105)
        pts = _pts4(32)
        for _ in range(5):
            r = rng.uniform(-0.4, 0.4, size=5)
            a = f"{r[0]:.4f}*x + {r[1]:.4f}*y"
            c = f"{r[2]:.4f}*x + {r[3]:.4f}*y"
            f = f"1 + {r[4]:.4f}*x*z"
            nk = build_null_kahler(*ex([a, c, f]))
            rep = null_kahler_check(nk["check"], nk["metric"], pts)
            assert max_abs(rep["domega"]) < 1e-12
            assert max_abs(rep["J_null"]) == 0.0
            assert max_abs(rep["compat"]) < 1e-10
            assert max_abs(rep["g_JJ"]) < 1e-10
            assert max_abs(rep["killing"]) < 1e-12
            out = certify_selfdual(nk["surface"], nk["pair"], pts,
                                   factor=ex(f))
            assert out["weyl_minus"] < 1e-8

    @pytest.mark.parametrize("a,c,f", [
        ("0", "0.2*x - 0.4*y", "1"),
        ("0.4*x", "0", "1/z^2"),
    ])
    def test_ricci_flat_members(self, a, c, f):
        nk = build_null_kahler(*ex([a, c, f]))
        out = certify_selfdual(nk["surface"], nk["pair"], _pts4(32),
                               factor=ex(f))
        assert out["weyl_minus"] < 1e-8
        assert out["ricci"] < 1e-9


# -- 6. twist dichotomy --------------------------------------------------------


def _twist_prediction(pair, pt):
    """v u_z - u v_z from the dz-components (u, v) of the vertical pair."""
    coords = pair.coords
    space = JetSpace(coords, 1)
    env = space.seed(dict(pt))
    u = eval_jet(pair.phi[0][1], space, dict(pt))
    v = eval_jet(pair.phi[1][1], space, dict(pt))
    iz = coords.index("z")
    return v.value * u.gradient()[iz] - u.value * v.gradient()[iz]


def _slope_ratio_z_dependence(pair, pt):
    coords = pair.coords
    space = JetSpace(coords, 1)
    u = eval_jet(pair.phi[0][1], space, dict(pt))
    v = eval_jet(pair.phi[1][1], space, dict(pt))
    iz = coords.index("z")
    ratio = u * v.reciprocal()
    return abs(ratio.gradient()[iz])


class TestTwistDichotomy:
    FAMILY = [
        (["0", "0", "0", "0"], "y/x", 0.0, "1", "z"),
        (["0", "0", "0", "0"], "y/x", 0.7, "1", "z"),
        (["0", "0", "0", "0.5"], "0", 0.7, "1", "z"),
        (["0", "0", "0", "0"], "y/x", 0.0, "x*z", "x*z^2/2"),
        (["0", "1", "0", "0"], "exp(x)", 0.0, "1", "z"),
        (["0", "0", "0", "0"], "0", 1.0, "1", "z"),
    ]

    @pytest.mark.parametrize("spray,gamma,c,H,G", FAMILY)
    def test_twist_is_proportional_to_the_vertical_wronskian(
            self, spray, gamma, c, H, G):
        P = ProjectiveSurface.from_spray(*ex(spray))
        pair = dw_quadrature_build(P, *ex([gamma, c, H, G]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        pts = _pts4(16)
        g, _ = MetricBuilder(pair=pair, factor=None).jets(pts, order=1)
        rep = killing_report(g, {"K": ex(["0", "0", "1", "0"])}, pts)["K"]
        rows = point_rows(pts)
        preds = np.array([_twist_prediction(pair, pt) for pt in rows])
        zdep = max(_slope_ratio_z_dependence(pair, pt) for pt in rows)
        if np.abs(preds).min() > 1e-10:
            ratios = np.array(rep["twist"]) / preds
            assert np.abs(ratios - ratios[0]).max() < 1e-8
            assert zdep > 1e-10  # twisting <=> z-dependent slope ratio
        else:
            assert np.abs(preds).max() < 1e-12
            assert max_abs(rep["twist"]) < 1e-12
            assert zdep < 1e-12


# -- 7. the null symmetry field and its orthogonal planes ----------------------


class TestNullSymmetryGeometry:
    CASES = [
        (["0", "0", "0", "0"], "y/x", 0.0),
        (["0", "0", "0", "0"], "y/x", 0.7),
        (["0", "0", "0", "0.5"], "0", 0.7),
        (["0", "1", "0", "0"], "exp(x)", 0.0),
    ]

    @pytest.mark.parametrize("spray,gamma,c", CASES)
    def test_symmetry_is_null_geodesic_with_integrable_planes(
            self, spray, gamma, c):
        P = ProjectiveSurface.from_spray(*ex(spray))
        pair = dw_quadrature_build(P, *ex([gamma, c, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        pts = _pts4(16)
        g, _ = MetricBuilder(pair=pair, factor=None).jets(pts, order=1)
        rep = killing_report(g, {"K": ex(["0", "0", "1", "0"])}, pts)["K"]
        assert max_abs(rep["null_defect"]) < 1e-10
        assert max_abs(rep["geodesic"]) < 1e-9
        coords = ("x", "y", "t", "z")
        vert = [["0", "0"] + [str(x) for x in pair.phi[0]],
                ["0", "0"] + [str(x) for x in pair.phi[1]]]
        assert max_abs(frobenius_residual(ex(vert), coords, pts)) < 1e-9
        beta = f"({gamma}) + {c}*z"
        other = [["0", "0", "1", "0"],
                 ["1", beta,
                  f"({pair.alpha[0][0]}) + ({beta})*({pair.alpha[1][0]})",
                  f"({pair.alpha[0][1]}) + ({beta})*({pair.alpha[1][1]})"]]
        assert max_abs(frobenius_residual(ex(other), coords, pts)) < 1e-9


# -- 8. the two integrability residuals agree ----------------------------------


def _dw_family():
    def mk(*spray):
        return ProjectiveSurface.from_spray(*ex(list(spray)))
    return [
        (FLAT, "y/x", 0.0, "1", "z"),
        (FLAT, "y/(x - 3)", 0.0, "1", "z"),
        (FLAT, "y/x", 0.0, "x*z", "x*z^2/2"),
        (FLAT, "y/x", 0.7, "1", "z"),
        (mk("0", "x", "0", "0"), "0", 0.0, "1", "z"),
        (mk("0", "1", "0", "0"), "exp(x)", 0.0, "1", "z"),
        (mk("0", "0", "y", "0"), "0", 0.0, "1", "z"),
        (mk("0", "0", "0", "0.5"), "0", 0.0, "1", "z"),
        (mk("0", "x", "y", "0"), "0", 0.0, "1", "z"),
        (FLAT, "y/(x + 2)", 0.3, "1", "z"),
    ]


def _perturb(pair, eps):
    bump = eps * parse("t", ("x", "y", "t", "z"))
    return ProjectivePair(pair.fiber,
                          [pair.alpha[0][0] + bump, pair.alpha[0][1]],
                          list(pair.alpha[1]), list(pair.phi[0]),
                          list(pair.phi[1]), c0=pair.c_gauge[0],
                          c1=pair.c_gauge[1])


class TestMutualOracles:
    def test_residuals_vanish_together_on_twenty_scenes(self):
        pts = _pts4(32)
        for P, gamma, c, H, G in _dw_family():
            pair = dw_quadrature_build(P, *ex([gamma, c, H, G]),
                                       points=DW_POINT,
                                       tol=TOLERANCES["build"])
            lres = max_abs(lax_residual(build_lax(P, pair), pts)["residual"])
            pres = max_abs(projective_pair_residual(P, pair, pts))
            assert lres < 1e-10 and pres < 1e-10

            broken = _perturb(pair, 1e-3)
            lneg = max_abs(lax_residual(build_lax(P, broken),
                                        pts)["residual"])
            pneg = max_abs(projective_pair_residual(P, broken, pts))
            assert lneg > 1e-6 and pneg > 1e-6
            assert abs(math.log10(lneg / pneg)) < 2.0


# -- 9. the curvature dichotomy for divisor pairs ------------------------------


def _root_congruences(c, shift=(0.0, 0.0)):
    """Congruences from the two roots of x b^2 - y b + c = 0, optionally
    with the connections shifted by an exact form (a gauge change)."""
    a0, a1 = shift
    out = []
    for sign in ("+", "-"):
        beta = parse(f"(y {sign} sqrt(y^2 - 4*{c}*x))/(2*x)", COORDS)
        rho0 = parse(
            f"(1 {sign} y/sqrt(y^2 - 4*{c}*x))/(2*x) - {a0}", COORDS)
        rho1 = parse(f"0 - {a1}", COORDS)
        scale = parse(f"exp({a0}*x + {a1}*y)", COORDS)
        out.append(WeightedCongruence((scale, scale * beta), (rho0, rho1)))
    return out


class TestDivisorDichotomy:
    def test_verdict_pairs_agree_on_twenty_scenes(self):
        rng = np.random.default_rng(109)
        neg_box = {"x": [-1.5, -0.5], "y": [-1.0, 1.0]}
        pos_pts = _surface_pts(16)
        neg_pts = _surface_pts(16, box=neg_box)
        for i in range(20):
            kind = i % 4
            if kind == 0:
                a1, a2 = rng.uniform(2.5, 4.0, size=2)
                c1 = congruence_from_slope(ex(f"y/(x - {a1:.4f})"))
                c2 = congruence_from_slope(ex(f"y/(x - {a2:.4f})"))
                P, pts, expect_sym = FLAT, pos_pts, True
            elif kind == 1:
                c1, c2 = _root_congruences(rng.uniform(0.6, 1.8))
                P, pts, expect_sym = FLAT, neg_pts, True
            elif kind == 2:
                shift = tuple(rng.uniform(-0.3, 0.3, size=2))
                c1, c2 = _root_congruences(rng.uniform(0.6, 1.8), shift)
                P, pts, expect_sym = FLAT, neg_pts, True
            else:
                c1, c2 = _root_congruences(rng.uniform(0.6, 1.8))
                P = projective_change(
                    FLAT,
                    ex(f"{rng.uniform(-0.2, 0.2):.4f}*y"),
                    ex(f"{rng.uniform(-0.2, 0.2):.4f}*x"))
                pts, expect_sym = neg_pts, True
            rep = divisor_two_report(P, c1, c2, pts, tol=1e-8)
            assert rep["sym_equivalence"] and rep["skew_equivalence"], (i, rep)
            assert rep["r_symmetric"] == rep["sum_flat"] == expect_sym
            assert rep["r_skew"] == rep["diff_flat"]


# -- 10. gauge classification against hand-made ground truth -------------------


def _nk_pair():
    return build_null_kahler(*ex(["0.4*x", "0.2*y", "1"]))["pair"]


class TestGaugeClassification:
    PAIRS = [
        # (pair factory, sample fibers, expected flags)
        (trivial_pair, {"w1": 0.3, "w2": -0.4},
         {"sdiff2": True, "hdiff2": True, "phi_sdiff": True,
          "o_times_diff1": True, "aff1_translational": True}),
        (_nk_pair, {"t": 0.2, "z": 0.7},
         {"sdiff2": True, "hdiff2": True, "phi_sdiff": True,
          "o_times_diff1": True, "aff1_translational": True}),
        (lambda: ProjectivePair(("w1", "w2"), *ex([
            ["0", "0"], ["0", "0"], ["w1", "0"], ["0", "1"]])),
         {"w1": 0.3, "w2": -0.4},
         {"sdiff2": False, "hdiff2": True, "phi_sdiff": False}),
        (lambda: twist_free_normal_form(FLAT, ex("y/x"),
                                        points=TWISTFREE_POINT,
                                        tol=TOLERANCES["build"]),
         {"z": 0.7},
         {"sdiff2": False, "hdiff2": True, "phi_sdiff": True,
          "o_times_diff1": True, "aff1_translational": True}),
        (lambda: dw_quadrature_build(
            ProjectiveSurface.from_spray(*ex(["0", "0", "0", "0.5"])),
            *ex(["0", 0.7, "1", "z"]), points=DW_POINT,
            tol=TOLERANCES["build"]),
         {"t": 0.2, "z": 0.7},
         {"phi_sdiff": False, "o_times_diff1": True,
          "aff1_translational": False}),
        (lambda: dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "x*z", "x*z^2/2"]),
                                     points=DW_POINT, tol=TOLERANCES["build"]),
         {"t": 0.2, "z": 0.7},
         {"sdiff2": False, "hdiff2": True, "phi_sdiff": True,
          "o_times_diff1": True, "aff1_translational": False}),
        (lambda: ProjectivePair(("w1", "w2"), *ex([
            ["w1*w2", "0"], ["0", "0"], ["1", "0"], ["0", "1"]])),
         {"w1": 0.3, "w2": -0.4},
         {"sdiff2": False, "hdiff2": False}),
        (lambda: ProjectivePair(("w1", "w2"), *ex([
            ["w2^2", "0"], ["0", "w1^2"], ["1", "0"], ["0", "1"]])),
         {"w1": 0.3, "w2": -0.4},
         {"sdiff2": True, "hdiff2": True, "phi_sdiff": True,
          "o_times_diff1": False, "aff1_translational": False}),
    ]

    @pytest.mark.parametrize("factory,fibers,expected", PAIRS)
    def test_flags_match_ground_truth(self, factory, fibers, expected):
        pair = factory()
        pts = sample_set([dict({"x": x, "y": y}, **fibers)
                          for x in (0.8, 1.2) for y in (1.3, 2.9)])
        flags, _ = gauge_reduction_report(pair, pts, TOLERANCES["gauge"])
        for name, want in expected.items():
            assert flags[name] == want, name

    def test_area_flag_matches_direct_connection_curvature(self):
        pts = sample_set([dict({"x": x, "y": y}, w1=0.3, w2=-0.4)
                          for x in (0.8, 1.2) for y in (1.3, 2.9)])
        # divergence-free fields: flag set and the connection is flat
        good = ProjectivePair(("w1", "w2"), *ex([
            ["w2^2", "0"], ["0", "w1^2"], ["1", "0"], ["0", "1"]]))
        flags, _ = gauge_reduction_report(good, pts, TOLERANCES["gauge"])
        assert flags["sdiff2"]
        assert area_connection_curvature(good, pts) < 1e-12
        # non-closed divergences: flag clear and the connection curves
        bad = ProjectivePair(("w1", "w2"), *ex([
            ["x*w1", "0"], ["0", "x*w2"], ["1", "0"], ["0", "1"]]))
        flags, _ = gauge_reduction_report(bad, pts, TOLERANCES["gauge"])
        assert not flags["sdiff2"]
        assert area_connection_curvature(bad, pts) > 0.5


# -- 11. negative controls with linear scaling ---------------------------------


def _lax_scene(eps):
    return {
        "name": "perturbed-lax",
        "coords": ["x", "y", "w1", "w2"],
        "pair": {"fiber": ["w1", "w2"],
                 "alpha0": [f"{eps}*w1*w2", "0"], "alpha1": ["0", "0"],
                 "phi0": ["1", "0"], "phi1": ["0", "1"]},
        "sampling": {"box": {"x": [0.5, 1.5], "y": [1.1, 2.9],
                             "w1": [0.2, 1.0], "w2": [0.2, 1.0]},
                     "count": 16, "seed": 0},
    }, "lax_residual"


def _pair_scene(eps):
    scene, _ = _lax_scene(eps)
    return scene, "pair_residual"


def _certify_scene(eps):
    scene, _ = _lax_scene(eps)
    return scene, "lax_residual"


def _congruence_scene(eps):
    return {
        "name": "perturbed-congruence",
        "coords": ["x", "y"],
        "congruences": {"bent": f"y/x + {eps}*x"},
        "sampling": {"box": {"x": [0.5, 1.5], "y": [1.1, 2.9]},
                     "count": 16, "seed": 0},
    }, "congruence[bent]"


def _frobenius_scene(eps):
    return {
        "name": "perturbed-frobenius",
        "coords": ["x", "y", "t", "z"],
        "distributions": {"tilted": [["1", "0", "0", "0"],
                                     ["0", "1", f"{eps}*x", "0"]]},
        "sampling": {"box": BOX4, "count": 16, "seed": 0},
    }, "frobenius[tilted]"


def _killing_scene(eps):
    scene, _ = _lax_scene(0.0)
    scene["name"] = "perturbed-killing"
    scene["pair"]["alpha0"] = ["0", "0"]
    scene["fields"] = {"K": ["0", "0", "1", f"{eps}*x"]}
    return scene, "conformal_killing[K]"


def _projective_field_scene(eps):
    return {
        "name": "perturbed-projective-field",
        "coords": ["x", "y"],
        "surface_fields": {"bent": ["1", f"{eps}*y^2"]},
        "sampling": {"box": {"x": [0.5, 1.5], "y": [1.1, 2.9]},
                     "count": 16, "seed": 0},
    }, "projective_field[bent]"


def _divisor2_scene(eps):
    root = "sqrt(y^2 - 4*x)"
    return {
        "name": "perturbed-divisor2",
        "coords": ["x", "y"],
        "divisor2": [
            {"phi": ["1", f"(y + {root})/(2*x)"],
             "rho": [f"(1 + y/{root})/(2*x) + {eps}*y", "0"]},
            {"phi": ["1", f"(y - {root})/(2*x)"],
             "rho": [f"(1 - y/{root})/(2*x)", "0"]},
        ],
        "sampling": {"box": {"x": [-1.5, -0.5], "y": [0.3, 1.0]},
                     "count": 16, "seed": 0},
    }, "weyl_connection_consistency"


NEGATIVE_CONTROLS = [
    ("verify-lax", _lax_scene),
    ("verify-pair", _pair_scene),
    ("certify-selfdual", _certify_scene),
    ("congruence", _congruence_scene),
    ("frobenius", _frobenius_scene),
    ("killing", _killing_scene),
    ("projective-field", _projective_field_scene),
    ("divisor2", _divisor2_scene),
]


class TestNegativeControls:
    @pytest.mark.parametrize("command,factory", NEGATIVE_CONTROLS,
                             ids=[c for c, _ in NEGATIVE_CONTROLS])
    def test_perturbed_scene_fails_with_linear_scaling(self, capsys,
                                                       tmp_path, command,
                                                       factory):
        values = []
        for eps in (1e-3, 1e-4, 1e-5):
            scene, check_name = factory(eps)
            path = _write_scene(tmp_path, f"{command}-{eps}", scene)
            code, report = run(capsys, command, path)
            assert code == 1, (command, eps)
            values.append(_check_value(report, check_name))
        for big, small in zip(values, values[1:]):
            assert 5.0 < big / small < 20.0, (command, values)


# -- 12. infrastructure --------------------------------------------------------


class TestInfrastructure:
    def test_jets_match_finite_differences(self):
        def f(x, y):
            return math.exp(x * y) * math.sin(x + 2 * y)

        x0, y0, h = 0.4, -0.3, 1e-5
        space = JetSpace(("x", "y"), 2)
        env = space.seed({"x": x0, "y": y0})
        jet = (env["x"] * env["y"]).exp() * (env["x"] + 2.0 * env["y"]).sin()
        fd = (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h)
        assert abs(extract(jet, (1, 0)) - fd) < 1e-6

    def test_geodesic_integrator_is_fourth_order(self):
        P = ProjectiveSurface({(1, 0, 0): ex("y"), (0, 1, 1): ex("x*y")})
        start, L = (0.1, 0.2, 0.4), 0.8
        def end(step):
            return P.integrate_geodesic(start, L, step, ex(["0", "0"]))[-1, :3]
        ref = end(0.00125)
        e1 = np.abs(end(0.02) - ref).max()
        e2 = np.abs(end(0.01) - ref).max()
        assert 12.0 < e1 / e2 < 20.0

    def test_reports_are_deterministic(self, capsys, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"report{i}.json"
            code = cli_main(["certify-selfdual",
                             str(SCENES / "nullkahler_hk.json"),
                             "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            lines = [ln for ln in out.read_text().splitlines()
                     if "wall_time" not in ln]
            outs.append("\n".join(lines))
        assert outs[0] == outs[1]


# -- 13. the foliation by selfdual null surfaces ------------------------------
#
# The 4-manifolds of the construction are foliated by selfdual null
# surfaces: the fibres {x, y const}, spanned by X_00' = phi0 and
# X_01' = phi1.  So g(X_0a', X_0b') = 0, and the lowered bivector
# X_00' ^ X_01' is a +1 eigenvector of the Hodge star in the builder's
# orientation; this pins the orientation convention (the Hodge star taken
# in the orientation of the frame volume form) to the geometry.


def _foliation_cases():
    """name -> (scene, metric builder): every checked-in scene whose pair
    has a 2-D fibre, and the pairs build-nullkahler and build-dw make."""
    out = {}
    for path in sorted(SCENES.glob("*.json")):
        scene = load_scene(path)
        if len(scene.get("pair", {}).get("fiber", ())) == 2:
            out[path.stem] = (scene, cli_metric(scene, cli_pair(scene)))
    scene = load_scene(SCENES / "nullkahler_random.json")
    spec = scene["build"]
    out["build-nullkahler"] = (scene, build_null_kahler(
        *ex([spec["a"], spec["c"], spec["f"]]))["metric"])
    scene = load_scene(SCENES / "dw_twist.json")
    spec = scene["build"]
    pair = dw_quadrature_build(
        cli_surface(scene), *ex([spec[k] for k in ("gamma", "c", "H", "G")]),
        points=DW_POINT, tol=TOLERANCES["build"])
    out["build-dw"] = (scene, MetricBuilder(pair=pair, factor=None))
    return out


FOLIATION_CASES = _foliation_cases()


@pytest.mark.parametrize("name", sorted(FOLIATION_CASES))
def test_fibres_are_selfdual_null_surfaces(name):
    scene, builder = FOLIATION_CASES[name]
    args = argparse.Namespace(samples=16, seed=None, tol=None)
    points = RunContext(scene, args).points(builder.coords)
    g, orientation = builder.jets(points, order=0)
    gv = np.ascontiguousarray(g.value)
    X = frame_values(builder, points)[..., :2, :]   # rows phi0, phi1
    assert X.shape == (16, 2, 4)
    # g(X_0a', X_0b') = 0, relative to |g| |X|^2 at each point
    null = X @ gv @ X.swapaxes(-1, -2)
    scale = np.abs(gv).max(axis=(-1, -2)) * np.abs(X).max(axis=(-1, -2)) ** 2
    assert np.all(np.abs(null).max(axis=(-1, -2)) <= 1e-14 * scale)
    low = X @ gv
    F = (low[:, 0, :, None] * low[:, 1, None, :]
         - low[:, 1, :, None] * low[:, 0, None, :])
    star = hodge_star_operator(gv, np.linalg.inv(gv), orientation)
    starF = np.einsum("...abcd,...cd->...ab", star, F)
    size = np.abs(F).max(axis=(-1, -2))
    assert np.all(size > 0.0)
    assert np.all(np.abs(starF - F).max(axis=(-1, -2)) <= 1e-12 * size)
    assert np.all(np.abs(starF + F).max(axis=(-1, -2)) > size)


# -- 14. selfdual, not conformally flat ---------------------------------------
#
# The null-Kaehler member a = 0, c = x^2 y^2, f = 1 of
# scenes/nullkahler_ricciflat.json is Ricci-flat with W- = 0, but W+, the
# whole curvature, is not zero: certifying it separates "selfdual" from
# "conformally flat", which the conformally flat scenes cannot.  Bending
# alpha0 by 0.05 z^2 breaks both the Lax pair and W- = 0.

RICCIFLAT = SCENES / "nullkahler_ricciflat.json"


class TestSelfdualNotConformallyFlat:
    @pytest.mark.parametrize("command", ["certify-selfdual",
                                         "build-nullkahler"])
    def test_the_scene_certifies_with_weyl_plus(self, capsys, command):
        code, report = run(capsys, command, str(RICCIFLAT))
        assert code == 0
        assert _check_value(report, "weyl_minus") == 0.0
        assert _check_value(report, "ricci") == 0.0
        if command == "certify-selfdual":
            assert _check_value(report, "lax_residual") == 0.0
        _, curvature = run(capsys, "curvature", str(RICCIFLAT))
        assert report["fitted"]["weyl_plus"] == curvature["fitted"]["riemann"]
        assert report["fitted"]["weyl_plus"] > 1.0

    def test_the_bent_control_fails(self, capsys, tmp_path):
        scene = json.loads(RICCIFLAT.read_text())
        alpha0 = scene["pair"]["alpha0"]
        alpha0[0] = f"{alpha0[0]} + 0.05*z^2"
        code, report = run(capsys, "certify-selfdual",
                           _write_scene(tmp_path, "bent", scene))
        assert code == 1
        assert _check_value(report, "lax_residual") > 0.1
        assert _check_value(report, "weyl_minus") > 0.05

    def test_weyl_plus_is_the_exact_riemann_tensor(self):
        sp = pytest.importorskip("sympy")
        X = sp.symbols("x y t z")
        x, y = X[:2]
        # g = f (dz.dy - (dt - a z dx - c dy).dx), "." the symmetric
        # product without 1/2, at a = 0, c = x^2 y^2, f = 1
        g = sp.zeros(4, 4)
        g[1, 3] = g[3, 1] = 1
        g[0, 2] = g[2, 0] = -1
        g[0, 1] = g[1, 0] = x**2 * y**2
        gi = g.inv()
        gam = [[[sum(gi[a, d] * (g[d, c].diff(X[b]) + g[b, d].diff(X[c])
                                 - g[b, c].diff(X[d])) for d in range(4)) / 2
                 for c in range(4)] for b in range(4)] for a in range(4)]
        # R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
        riemann = {}
        for a, b, c, d in np.ndindex(4, 4, 4, 4):
            entry = sp.expand(gam[a][d][b].diff(X[c]) - gam[a][c][b].diff(X[d])
                              + sum(gam[a][c][e] * gam[e][d][b]
                                    - gam[a][d][e] * gam[e][c][b]
                                    for e in range(4)))
            if entry != 0:
                riemann[a, b, c, d] = entry
        # R^t_yxy = R^z_xxy = -4xy, antisymmetric in the last two indices
        assert riemann == {(2, 1, 0, 1): -4 * x * y, (2, 1, 1, 0): 4 * x * y,
                           (3, 0, 0, 1): -4 * x * y, (3, 0, 1, 0): 4 * x * y}
        scene = load_scene(RICCIFLAT)
        builder = MetricBuilder(pair=cli_pair(scene), factor=None)
        args = argparse.Namespace(samples=None, seed=None, tol=None)
        points = RunContext(scene, args).points(builder.coords)
        g_jets, orientation = builder.jets(points)
        values = [points[name] for name in builder.coords]
        want_g = np.zeros((32, 4, 4))
        for (i, j), entry in np.ndenumerate(np.array(g.tolist())):
            want_g[:, i, j] = sp.lambdify(X, entry, "numpy")(*values)
        assert np.allclose(g_jets.value, want_g, rtol=0.0, atol=1e-15)
        want = np.zeros((32, 4, 4, 4, 4))
        for index, entry in riemann.items():
            want[(slice(None),) + index] = sp.lambdify(X, entry,
                                                       "numpy")(*values)
        # with Ricci = 0 and W- = 0, W+ (first index up) is all of Riemann
        rep = curvature_report(g_jets, orientation)
        assert np.array_equal(rep["weyl_plus"], want)
        assert not rep["weyl_minus"].any()
        assert not rep["ricci"].any()
