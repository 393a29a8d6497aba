"""Divisor calculus on the surface: weighted congruences, curvature
dichotomy, line-bundle transport, and geodesic-permuting fields."""

import math

import numpy as np
import pytest

from sdconformal import expr
from sdconformal.cli import TOLERANCES
from sdconformal.expr import as_expression, parse
from sdconformal.jets import Jet, JetSpace, max_abs
from sdconformal.projective import ProjectiveSurface
from sdconformal.minitwistor import (WeightedCongruence,
                                     divisor_two_report, ward_transport,
                                     projective_field_residual)
from oracles import (abelian_pair_residual,
                     canonical_connection_from_congruence,
                     congruence_from_slope, projective_change,
                     reference_eval, sample_set)

FLAT = ProjectiveSurface({})
XY = ("x", "y")


def ex(value):
    """Test data (text, a number or a list of them) as Expressions."""
    return as_expression(value, XY, "test data")


PTS = sample_set([(0.8, 1.3), (1.2, 2.9), (0.6, -0.4), (1.5, 0.9)])


class TestWeightedCongruences:
    def test_constant_field_needs_no_connection(self):
        assert abelian_pair_residual(FLAT, ex(["1", "0"]), ex(["0", "0"]),
                                     PTS) == 0.0

    def test_slope_congruence_with_canonical_connection(self):
        cong = congruence_from_slope(ex("y/x"))
        assert abelian_pair_residual(FLAT, cong.phi, cong.rho, PTS) < 1e-13

    def test_rescaling_shifts_the_connection_by_an_exact_form(self):
        # phi -> e^x phi is compensated exactly by rho -> rho - dx
        beta = parse("y/x", XY)
        e = parse("exp(x)", XY)
        phi = (e, e * beta)
        rho = (beta.diff("y") - 1.0, parse("0", XY))
        assert abelian_pair_residual(FLAT, phi, rho, PTS) < 1e-12

    def test_non_congruence_field_is_rejected(self):
        res = abelian_pair_residual(FLAT, ex(["1", "x"]), ex(["0", "0"]), PTS)
        assert res > 0.1

    def test_equation_is_projectively_invariant(self):
        Q = projective_change(FLAT, *ex(["0.1*y", "0.2*x"]))
        cong = congruence_from_slope(ex("y/x"))
        assert abelian_pair_residual(Q, cong.phi, cong.rho, PTS) < 1e-12


class TestCanonicalConnection:
    def test_recovers_the_slope_connection(self):
        out = canonical_connection_from_congruence(FLAT, ex(["1", "y/x"]),
                                                   {"x": 1.0, "y": 2.0})
        assert out["residual"] < 1e-13
        assert out["rho"] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert abs(out["r_phi_phi"]) < 1e-12

    def test_constant_field_has_zero_connection(self):
        out = canonical_connection_from_congruence(FLAT, ex(["1", "0.5"]),
                                                   {"x": 0.8, "y": 1.3})
        assert out["residual"] < 1e-14
        assert np.abs(out["rho"]).max() < 1e-14

    def test_curved_surface_congruence(self):
        Q = projective_change(FLAT, *ex(["0.1*y", "0.2*x"]))
        out = canonical_connection_from_congruence(Q, ex(["1", "y/x"]),
                                                   {"x": 1.0, "y": 2.0})
        assert out["residual"] < 1e-12
        assert abs(out["r_phi_phi"]) < 1e-12

    def test_non_congruence_leaves_a_residual(self):
        out = canonical_connection_from_congruence(FLAT, ex(["1", "x"]),
                                                   {"x": 1.0, "y": 2.0})
        assert out["residual"] > 0.1


ROOT_PTS = sample_set([(-1.2, 0.4), (-0.7, -0.6), (-1.4, 0.9), (-0.6, 0.1)])


def _quadratic_root_congruences():
    # the two roots of x b^2 - y b + 1 = 0 solve b_x + b b_y = 0, with
    # canonical connections rho = (b_y, 0)
    phis = []
    rhos = []
    for sign in ("+", "-"):
        beta = parse(f"(y {sign} sqrt(y^2 - 4*x))/(2*x)", XY)
        rho0 = parse(f"(1 {sign} y/sqrt(y^2 - 4*x))/(2*x)", XY)
        phis.append((parse("1", XY), beta))
        rhos.append((rho0, parse("0", XY)))
    return (WeightedCongruence(phis[0], rhos[0]),
            WeightedCongruence(phis[1], rhos[1]))


class TestDivisorTwo:
    def test_two_affine_pencils_are_fully_flat(self):
        cong1 = congruence_from_slope(ex("y/x"))
        cong2 = congruence_from_slope(ex("y/(x - 3)"))
        rep = divisor_two_report(FLAT, cong1, cong2, PTS,
                                 TOLERANCES["divisor2"])
        assert max_abs(rep["dc_residual"]) < 1e-10
        assert rep["sym_r"] < 1e-10 and rep["skew_r"] < 1e-10
        assert rep["f_sum"] < 1e-10 and rep["f_diff"] < 1e-10
        assert rep["r_symmetric"] and rep["r_skew"]
        assert rep["sym_equivalence"] and rep["skew_equivalence"]

    def test_quadratic_roots_split_the_dichotomy(self):
        cong1, cong2 = _quadratic_root_congruences()
        rep = divisor_two_report(FLAT, cong1, cong2, ROOT_PTS,
                                 TOLERANCES["divisor2"])
        assert max_abs(rep["dc_residual"]) < 1e-10
        # F1 + F2 = 0 exactly (the connection sum is d(y/x)-exact in y),
        # F1 - F2 is genuinely nonzero: symmetric-but-not-skew case
        assert rep["sum_flat"] and rep["r_symmetric"]
        assert not rep["diff_flat"] and not rep["r_skew"]
        assert rep["f_diff"] > 0.1 and rep["sym_r"] > 0.1
        assert rep["sym_equivalence"] and rep["skew_equivalence"]

    def test_verdicts_survive_a_projective_change(self):
        Q = projective_change(FLAT, *ex(["0.1*y", "0.2*x"]))
        cong1, cong2 = _quadratic_root_congruences()
        rep = divisor_two_report(Q, cong1, cong2, ROOT_PTS,
                                 TOLERANCES["divisor2"])
        assert max_abs(rep["dc_residual"]) < 1e-9
        assert rep["r_symmetric"] and not rep["r_skew"]
        assert rep["sum_flat"] and not rep["diff_flat"]
        assert rep["sym_equivalence"] and rep["skew_equivalence"]


class TestWardTransport:
    def test_zero_connection_transports_trivially(self):
        out = ward_transport(FLAT, ex(["0", "0"]), (0.0, 0.0, 0.5), 1.0, 0.01)
        assert out["transport"] == 1.0

    def test_exact_form_transport_is_a_boundary_term(self):
        # rho = dx: transport over unit x-advance is exp(-1)
        out = ward_transport(FLAT, ex(["1", "0"]), (0.0, 0.0, 0.5), 1.0, 0.01)
        assert out["transport"] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert out["end"] == pytest.approx((1.0, 0.5, 0.5), abs=1e-12)

    def test_transport_is_multiplicative_along_the_curve(self):
        rho = ex(["y", "x"])
        first = ward_transport(FLAT, rho, (0.0, 0.0, 0.5), 0.5, 0.01)
        second = ward_transport(FLAT, rho, tuple(first["end"]), 0.5, 0.01)
        whole = ward_transport(FLAT, rho, (0.0, 0.0, 0.5), 1.0, 0.01)
        assert whole["transport"] == pytest.approx(
            first["transport"] * second["transport"], rel=1e-10)

    def test_length_that_is_not_a_whole_number_of_steps(self):
        # rho = dx on the flat structure: s = exp(-x advance) exactly
        for step, states in ((0.01, 57), (0.005, 112)):
            path = FLAT.integrate_geodesic((0.0, 0.0, 0.5), 0.555, step,
                                           rho=ex(["1", "0"]))
            assert len(path) == states
            assert path[-1, 0] == pytest.approx(0.555, abs=1e-15)
            assert path[-1, 3] == pytest.approx(math.exp(-0.555), abs=1e-9)
        for length, states in ((0.004, 2), (-0.5, 1)):
            assert len(FLAT.integrate_geodesic((0.0, 0.0, 0.5), length, 0.01,
                                               rho=ex(["0", "0"]))) == states

    def test_step_halving_converges(self):
        rho = ex(["y", "x"])
        coarse = ward_transport(FLAT, rho, (0.0, 0.0, 0.5), 1.0, 0.02)
        fine = ward_transport(FLAT, rho, (0.0, 0.0, 0.5), 1.0, 0.01)
        assert abs(coarse["transport"] - fine["transport"]) < 1e-8


# The two integrators that `integrate_geodesic(..., rho=...)` replaced,
# kept as references: the geodesic loop and the joint geodesic and
# section transport loop, each with its own RK4 step, evaluating the
# coefficients by walking their trees at every stage.

def _reference_rk4(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_values(exprs, x, y):
    space = JetSpace(XY, 0)
    env = space.seed({"x": x, "y": y})
    return [reference_eval(c, env, space).value for c in exprs]


def _reference_geodesic(P, start, length, step):
    a_exprs = P.spray_coeffs()

    def rhs1(state):
        x, y, lam = state
        a = _reference_values(a_exprs, x, y)
        return np.array([1.0, lam,
                         a[0] + a[1]*lam + a[2]*lam**2 + a[3]*lam**3])

    def rhs2(state):
        x, y, mu = state
        a = _reference_values(a_exprs, x, y)
        return np.array([mu, 1.0,
                         -(a[0]*mu**3 + a[1]*mu**2 + a[2]*mu + a[3])])

    x, y, lam = start
    path = [np.array([x, y, lam])]
    for _ in range(int(round(length / step))):
        if abs(lam) <= 1.0:
            x, y, lam = _reference_rk4(rhs1, np.array([x, y, lam]), step)
        else:
            x, y, mu = _reference_rk4(rhs2, np.array([x, y, 1.0 / lam]),
                                      step)
            lam = np.inf if mu == 0.0 else 1.0 / mu
        path.append(np.array([x, y, lam]))
    return np.array(path)


def _reference_ward(P, rho, start, length, step):
    a_exprs = P.spray_coeffs()

    def rhs1(state):
        x, y, lam, s = state
        a = _reference_values(a_exprs, x, y)
        r = _reference_values(rho, x, y)
        return np.array([1.0, lam,
                         a[0] + a[1]*lam + a[2]*lam**2 + a[3]*lam**3,
                         -(r[0] + r[1]*lam) * s])

    def rhs2(state):
        x, y, mu, s = state
        a = _reference_values(a_exprs, x, y)
        r = _reference_values(rho, x, y)
        return np.array([mu, 1.0,
                         -(a[0]*mu**3 + a[1]*mu**2 + a[2]*mu + a[3]),
                         -(r[0]*mu + r[1]) * s])

    x, y, lam = start
    s = 1.0
    for _ in range(int(round(length / step))):
        if abs(lam) <= 1.0:
            x, y, lam, s = _reference_rk4(rhs1, np.array([x, y, lam, s]),
                                          step)
        else:
            x, y, mu, s = _reference_rk4(
                rhs2, np.array([x, y, 1.0 / lam, s]), step)
            lam = np.inf if mu == 0.0 else 1.0 / mu
    return s, np.array([x, y, lam])


CURVED = ProjectiveSurface.from_spray(*ex(["0.6 + 0.3*x*y", "0.2*y - 0.1*x",
                                           "0.4 + 0.1*x", "0.25*y - 0.3"]))
CURVED_RHO = ex(["0.3*y + x^2", "x*y - 0.2"])
# every coefficient has free variables; between them they divide, take
# negative powers, exp and sin
WILD = ProjectiveSurface.from_spray(*ex([
    "0.5*exp(0.2*x)/(2 + y^2) + 0.3", "0.3*sin(x - y) + (1.5 + x*x)^-2",
    "0.2*y/(1 + x^2) + 0.1*exp(-y)", "0.1*sin(y)^2 - 0.3*(2 + x)^-2"]))


class TestOneIntegrator:
    # (start, length): from chart 2 at lam = 2, and from chart 1 across
    # |lam| = 1 (the spray's lam' = a(lam) > 0 drives the slope up)
    CASES = [((0.1, -0.2, 2.0), 0.6), ((0.0, 0.1, 0.7), 1.2)]

    @pytest.mark.parametrize("start,length", CASES)
    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_geodesic_matches_the_replaced_loop(self, start, length, step):
        path = CURVED.integrate_geodesic(start, length, step, ex(["0", "0"]))
        path = path[:, :3]
        assert np.array_equal(
            path, _reference_geodesic(CURVED, start, length, step))
        lam = np.abs(path[:, 2])
        assert np.any(lam > 1.0)
        if start[2] < 1.0:
            assert np.any(lam <= 1.0) and lam[-1] > 1.0

    @pytest.mark.parametrize("start,length", CASES)
    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_ward_matches_the_replaced_loop(self, start, length, step):
        out = ward_transport(CURVED, CURVED_RHO, start, length, step)
        s, end = _reference_ward(CURVED, CURVED_RHO, start, length, step)
        assert out["transport"] == s
        assert np.array_equal(out["end"], end)
        assert s != 1.0

    # with rho = (y, x) the compiled plan returns its own input jets
    @pytest.mark.parametrize("rho", [CURVED_RHO, ex(["y", "x"])])
    @pytest.mark.parametrize("start,length", CASES)
    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_wild_spray_matches_the_replaced_loops(self, rho, start, length,
                                                   step):
        path = WILD.integrate_geodesic(start, length, step, ex(["0", "0"]))
        path = path[:, :3]
        assert np.array_equal(path,
                              _reference_geodesic(WILD, start, length, step))
        lam = np.abs(path[:, 2])
        assert np.all(np.isfinite(path)) and np.any(lam > 1.0)
        if start[2] < 1.0:
            assert np.any(lam <= 1.0) and lam[-1] > 1.0
        out = ward_transport(WILD, rho, start, length, step)
        s, end = _reference_ward(WILD, rho, start, length, step)
        assert out["transport"] == s and s != 1.0
        assert np.array_equal(out["end"], end)

    @pytest.mark.parametrize("start,length", CASES)
    def test_transport_leaves_the_geodesic_unchanged(self, start, length):
        path = CURVED.integrate_geodesic(start, length, 0.01, rho=CURVED_RHO)
        assert path.shape[1] == 4 and path[0, 3] == 1.0
        assert np.array_equal(path[:, :3], CURVED.integrate_geodesic(
            start, length, 0.01, rho=ex(["0", "0"]))[:, :3])

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step must be positive"):
            ward_transport(FLAT, ex(["0", "0"]), (0.0, 0.0, 0.5), 1.0, 0.0)

    def test_nothing_writes_into_the_folded_constants(self, monkeypatch):
        compiled = expr.compile
        folded = []

        def spy(exprs, space):
            plan = compiled(exprs, space)
            folded.extend((r, r.coeffs.tobytes()) for r in plan.registers
                          if isinstance(r, Jet))
            return plan

        monkeypatch.setattr(expr, "compile", spy)
        # the whole spray and "2*0.3" fold; the rest reads x and y
        P = ProjectiveSurface.from_spray(*ex(["0.1*2", "0.3", "0", "0.5 - 1"]))
        out = ward_transport(P, ex(["0.3*y + x*(2*0.3)", "0.3*x"]),
                             (0.0, 0.1, 0.7), 0.5, 0.01)
        assert out["transport"] != 1.0
        assert len(folded) >= 5
        for jet, before in folded:
            assert not jet.coeffs.flags.writeable
            assert jet.coeffs.tobytes() == before


    def test_one_plan_per_path(self, monkeypatch):
        compile_plan = expr.compile
        compiled = []

        def counting(exprs, space):
            compiled.append((len(exprs), space))
            return compile_plan(exprs, space)

        monkeypatch.setattr(expr, "compile", counting)
        start, length = self.CASES[1]
        CURVED.integrate_geodesic(start, length, 0.01, rho=ex(["0", "0"]))
        ward_transport(CURVED, CURVED_RHO, start, length, 0.01)
        assert compiled == [(6, JetSpace(XY, 0))] * 2


class TestProjectiveFields:
    def test_affine_fields_permute_lines(self):
        for V in (["1", "0"], ["x", "y"], ["0 - y", "x"], ["x", "2*y + x"]):
            assert max_abs(projective_field_residual(FLAT, ex(V), PTS)) < 1e-12

    def test_quadratic_field_does_not(self):
        res = projective_field_residual(FLAT, ex(["y^2", "0"]), PTS)
        assert max_abs(res) > 1.0

    def test_translation_respects_translation_invariant_structure(self):
        # spray coefficients independent of x: d/dx permutes geodesics
        P = ProjectiveSurface.from_spray(*ex(["0", "y", "0", "0"]))
        dx, dy = ex(["1", "0"]), ex(["0", "1"])
        assert max_abs(projective_field_residual(P, dx, PTS)) < 1e-12
        assert max_abs(projective_field_residual(P, dy, PTS)) > 0.1
