"""Surface-side geometry: sprays, curvature, geodesics, congruences."""

import numpy as np
import pytest

from sdconformal.expr import ZERO, parse
from sdconformal.jets import max_abs
from sdconformal.projective import ProjectiveSurface, COORDS
from oracles import (cotton, lifted_spray_velocity, projective_change,
                     reconstruct_curvature, ricci_values_at, sample_set,
                     spray_value, unstack)

RNG = np.random.default_rng(20240811)


def ex(source):
    """`source` parsed over the surface coordinates."""
    return parse(source, COORDS)


def _random_polynomial(rng, degree=3):
    """Random polynomial in x, y with coefficients in [-1, 1]."""
    terms = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = rng.uniform(-1, 1)
            terms.append(f"{c:+.6f}*x^{i}*y^{j}".replace("x^0*", "")
                         .replace("*y^0", ""))
    return ex("".join(terms).lstrip("+"))


def _random_surface(rng):
    gamma = {}
    for A in range(2):
        for B in range(2):
            for C in range(B, 2):
                gamma[(A, B, C)] = _random_polynomial(rng, degree=2)
    return ProjectiveSurface(gamma)


def _points(rng, n=6):
    """`n` random single points, each a mapping of x and y to numbers."""
    return [{"x": x, "y": y} for x, y in rng.uniform(-0.8, 0.8, size=(n, 2))]


class TestSpray:
    def test_flat_spray_vanishes(self):
        P = ProjectiveSurface({})
        for lam in (0.0, 0.5, -2.0):
            assert spray_value(P, 0.3, -0.7, lam) == 0.0

    def test_spray_dictionary(self):
        # a0 reads off the (1,0,0) Christoffel directly
        P = ProjectiveSurface({(1, 0, 0): ex("x*y")})
        a = P.spray_coeffs()
        pt = {"x": 0.5, "y": 2.0}
        assert _value(a[0], pt) == pytest.approx(0.5 * 2.0)
        assert all(_is_zero(c, pt) for c in a[1:])

    def test_from_spray_roundtrip(self):
        coeffs = ("x", "y^2", "1 + x*y", "-2*y")
        P = ProjectiveSurface.from_spray(*map(ex, coeffs))
        got = P.spray_coeffs()
        for pt in _points(RNG, 4):
            for want, have in zip(coeffs, got):
                assert _value(have, pt) == pytest.approx(
                    _value(ex(want), pt), rel=1e-13)

    def test_projective_invariance_of_spray(self):
        # acceptance: 20 random (surface, shift) pairs
        rng = np.random.default_rng(7)
        for _ in range(20):
            P = _random_surface(rng)
            g0, g1 = _random_polynomial(rng), _random_polynomial(rng)
            Q = projective_change(P, g0, g1)
            for pt in _points(rng, 3):
                for a, b in zip(P.spray_coeffs(), Q.spray_coeffs()):
                    assert _value(a, pt) == pytest.approx(
                        _value(b, pt), abs=1e-12)


def _value(expr, pt):
    from sdconformal.jets import JetSpace
    from oracles import evaluate
    space = JetSpace(COORDS, 0)
    return evaluate(expr, space.seed(pt), space=space).value


def _is_zero(expr, pt):
    return _value(expr, pt) == 0.0


class TestCurvature:
    def test_flat_ricci_vanishes(self):
        P = ProjectiveSurface({})
        assert np.abs(ricci_values_at(P, {"x": 0.2, "y": 0.4})).max() == 0.0

    def test_curvature_reconstruction_roundtrip(self):
        rng = np.random.default_rng(3)
        P = _random_surface(rng)
        for pt in _points(rng, 4):
            r = ricci_values_at(P, pt)
            R = reconstruct_curvature(r)
            direct = unstack(P.curvature_endomorphism(
                P.christoffel_jets(pt, 2)), 2)
            got = np.array([[direct[A][B].value for B in range(2)]
                            for A in range(2)])
            assert np.allclose(R, got, atol=1e-12)

    def test_ricci_transformation_law(self):
        # r' = r + Dgamma - gamma (x) gamma, pointwise
        from sdconformal.jets import JetSpace
        from oracles import evaluate
        rng = np.random.default_rng(11)
        for _ in range(20):
            P = _random_surface(rng)
            g0, g1 = _random_polynomial(rng), _random_polynomial(rng)
            Q = projective_change(P, g0, g1)
            pt = _points(rng, 1)[0]
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

    def test_cotton_projective_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            P = _random_surface(rng)
            Q = projective_change(P, _random_polynomial(rng),
                                  _random_polynomial(rng))
            pt = _points(rng, 1)[0]
            a, b = cotton(P, pt), cotton(Q, pt)
            assert np.abs(a - b).max() < 1e-9 * (1.0 + np.abs(a).max())


class TestGeodesics:
    def test_flat_geodesics_are_lines(self):
        P = ProjectiveSurface({})
        path = P.integrate_geodesic((0.0, 0.0, 0.5), 1.0, 0.05, (ZERO, ZERO))
        x, y, lam = path[-1, :3]
        assert (x, y, lam) == pytest.approx((1.0, 0.5, 0.5), abs=1e-13)

    def test_rk4_richardson_factor(self):
        # quartic convergence: error ratio between steps h and h/2 is ~16
        P = ProjectiveSurface({(1, 0, 0): ex("y"), (0, 1, 1): ex("x*y")})
        start, L = (0.1, 0.2, 0.4), 0.8

        def end(h):
            return P.integrate_geodesic(start, L, h, (ZERO, ZERO))[-1, :3]

        ref = end(0.00125)
        e1 = np.abs(end(0.02) - ref).max()
        e2 = np.abs(end(0.01) - ref).max()
        assert 12.0 < e1 / e2 < 20.0

    def test_chart_switch_preserves_the_geodesic(self):
        # run through lam > 1 territory and back; flat lines stay lines
        P = ProjectiveSurface({})
        path = P.integrate_geodesic((0.0, 0.0, 2.0), 0.5, 0.01, (ZERO, ZERO))
        x, y, lam = path[-1, :3]
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert y == pytest.approx(2.0 * x, abs=1e-12)

    def test_lifted_spray_projects_to_spray(self):
        P = ProjectiveSurface({(1, 0, 0): ex("x + y")})
        state = np.array([0.3, -0.2, 1.0, 0.7])
        vel = lifted_spray_velocity(P, state)
        # d(lam)/ds = (pidot1 - lam pidot0)/pi0 must equal pi0 * a(lam)
        lam = state[3] / state[2]
        dlam = (vel[3] - lam * vel[2]) / state[2]
        assert dlam == pytest.approx(
            state[2] * spray_value(P, state[0], state[1], lam), rel=1e-12)


class TestCongruences:
    def test_burgers_slope_is_a_congruence(self):
        P = ProjectiveSurface({})
        pts = sample_set([(x, y) for x in (0.5, 1.0, 1.5) for y in (1.0, 2.0)])
        assert max_abs(P.congruence_residual(ex("y/x"), pts)) < 1e-14

    def test_multiplier_matches_slope_derivative(self):
        # flat case: b(lam) = d(beta)/dy, independent of lam
        P = ProjectiveSurface({})
        for lam in (0.0, 1.0, -2.0):
            b = P.congruence_multiplier(ex("y/x"), {"x": 1.0, "y": 2.0}, lam)
            assert b == pytest.approx(1.0, rel=1e-12)

    def test_non_congruence_is_detected(self):
        P = ProjectiveSurface({})
        assert P.congruence_residual(ex("y"), sample_set([(0.3, 0.8)])) == \
            pytest.approx(0.8)
