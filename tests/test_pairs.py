"""Vertical-field pairs: bracket certification, builders, gauge flags."""

import numpy as np
import pytest

from sdconformal.cli import TOLERANCES
from sdconformal.expr import as_expression
from sdconformal.jets import MAX_VARS, Jet, JetSpace, max_abs
from sdconformal.projective import ProjectiveSurface
from sdconformal.pairs import (ProjectivePair, BuildError, build_lax,
                               lax_residual, ordered_bracket,
                               projective_pair_residual,
                               twist_free_normal_form, dw_quadrature_build,
                               gauge_reduction_report)
from oracles import (DW_POINT, TWISTFREE_POINT, add_multiple_of_l0,
                     area_connection_curvature, field_bracket_loop,
                     fiber_bracket_loop, point_rows, sample_set, trivial_pair)

FLAT = ProjectiveSurface({})


def ex(value):
    """Test data (text, a number or a list of them) as Expressions."""
    return as_expression(value, ("x", "y", "t", "z", "w1", "w2"), "test data")


def _grid(fiber_values, xs=(0.8, 1.2), ys=(1.3, 2.9)):
    return sample_set([dict({"x": x, "y": y}, **fiber_values)
                       for x in xs for y in ys])


class TestTrivialPair:
    def test_lax_residual_vanishes(self):
        pair = trivial_pair()
        lax = build_lax(FLAT, pair)
        out = lax_residual(lax, _grid({"w1": 0.3, "w2": -0.4}))
        assert max_abs(out["residual"]) == 0.0
        assert max_abs(out["cubic"]) == 0.0
        assert np.abs(out["b_coeffs"]).max() == 0.0

    def test_first_order_residual_vanishes(self):
        pair = trivial_pair()
        res = projective_pair_residual(FLAT, pair,
                                       _grid({"w1": 0.3, "w2": -0.4}))
        assert max_abs(res) == 0.0


class TestTwistFree:
    def test_flat_congruence_certifies(self):
        pair = twist_free_normal_form(FLAT, ex("y/x"),
                                      points=sample_set([(0.8, 1.3),
                                                         (1.2, 2.9)]),
                                      tol=TOLERANCES["build"])
        lax = build_lax(FLAT, pair)
        out = lax_residual(lax, _grid({"z": 0.7}))
        assert max_abs(out["residual"]) < 1e-13
        assert max_abs(out["cubic"]) < 1e-13
        # flat spray: the multiplier -a'(lam)/3 vanishes identically
        assert np.abs(out["b_coeffs"]).max() < 1e-13
        assert max_abs(projective_pair_residual(FLAT, pair,
                                               _grid({"z": 0.7}))) < 1e-13

    @pytest.mark.parametrize("spray,want_b", [
        # b(lam) = -a'(lam)/3 evaluated coefficientwise at (x, y)
        (("0", "x", "0", "0"), lambda x, y: (-x / 3.0, 0.0, 0.0)),
        (("0", "0", "0", "y"), lambda x, y: (0.0, 0.0, -y)),
        (("0", "x", "y", "0"), lambda x, y: (-x / 3.0, -2.0 * y / 3.0, 0.0)),
    ])
    def test_multiplier_is_minus_third_spray_derivative(self, spray, want_b):
        P = ProjectiveSurface.from_spray(*ex(list(spray)))
        # beta = 0 solves the congruence equation whenever a0 = 0
        pair = twist_free_normal_form(P, ex("0"),
                                      points=sample_set([(0.8, 1.3)]),
                                      tol=TOLERANCES["build"])
        pts = _grid({"z": 0.7})
        # lam = 0 sits on the congruence (L0 degenerates there); sample off it
        out = lax_residual(build_lax(P, pair), pts,
                           lambdas=(0.25, 0.75, -0.75, 1.5, -1.5, 2.5))
        assert max_abs(out["residual"]) < 1e-12
        assert max_abs(out["cubic"]) < 1e-12
        for pt, fit in zip(point_rows(pts), out["b_coeffs"]):
            assert fit == pytest.approx(want_b(pt["x"], pt["y"]), abs=1e-11)
        assert max_abs(projective_pair_residual(P, pair, pts)) < 1e-12

    def test_rejects_non_congruence(self):
        with pytest.raises(BuildError):
            twist_free_normal_form(FLAT, ex("y"),
                                   points=sample_set([(0.3, 0.8)]),
                                   tol=TOLERANCES["build"])


class TestQuadratureBuild:
    PTS = _grid({"t": 0.2, "z": 0.7})

    def _certify(self, P, pair, first_order=True):
        out = lax_residual(build_lax(P, pair), self.PTS)
        assert max_abs(out["residual"]) < 1e-12
        assert max_abs(out["cubic"]) < 1e-12
        if first_order:
            assert max_abs(projective_pair_residual(P, pair, self.PTS)) < 1e-12
        return out

    def test_twist_free_two_fiber(self):
        pair = dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "1", "z"]),
                                   points=self.PTS, tol=TOLERANCES["build"])
        self._certify(FLAT, pair)

    def test_nonconstant_quadrature_data(self):
        # H = x z solves both transport equations for gamma = y/x on the
        # flat surface; G = x z^2 / 2 integrates it
        pair = dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "x*z", "x*z^2/2"]),
                                   points=self.PTS, tol=TOLERANCES["build"])
        self._certify(FLAT, pair)

    def test_twisting_pair(self):
        P = ProjectiveSurface.from_spray(*ex(["0", "0", "0", "0.5"]))
        pair = dw_quadrature_build(P, *ex(["0", 0.7, "1", "z"]),
                                   points=self.PTS, tol=TOLERANCES["build"])
        # the twisting + cubic-spray case needs a z-dependent residual
        # trivialization that the base-valued gauge frame cannot record,
        # so only the bracket test certifies here
        out = self._certify(P, pair, first_order=False)
        # b(lam) = -a3 lam (lam - beta) with beta = 0.7 z
        for pt, fit in zip(point_rows(self.PTS), out["b_coeffs"]):
            beta = 0.7 * pt["z"]
            assert fit == pytest.approx((0.0, 0.5 * beta, -0.5), abs=1e-11)

    def test_curved_base(self):
        P = ProjectiveSurface.from_spray(*ex(["0", "x", "0", "0"]))
        pair = dw_quadrature_build(P, *ex(["0", 0.0, "1", "z"]),
                                   points=self.PTS, tol=TOLERANCES["build"])
        self._certify(P, pair)

    def test_rejects_broken_quadrature(self):
        tol = TOLERANCES["build"]
        with pytest.raises(BuildError):   # G_z != H
            dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "1", "2*z"]), self.PTS,
                                tol)
        with pytest.raises(BuildError):   # transport fails
            dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "x", "x*z"]), self.PTS,
                                tol)
        with pytest.raises(BuildError):   # not a congruence
            dw_quadrature_build(FLAT, *ex(["y", 0.0, "1", "z"]), self.PTS, tol)


class TestGaugeFreedom:
    def test_adding_multiple_of_l0_is_invisible(self):
        pair = dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        lax = build_lax(FLAT, pair)
        pts = _grid({"t": 0.2, "z": 0.7})
        before = lax_residual(lax, pts)
        after = lax_residual(add_multiple_of_l0(lax, ex("x - 2*y")), pts)
        assert max_abs(after["residual"]) < 1e-12
        assert max_abs(after["cubic"]) < 1e-12
        assert np.allclose(after["b_coeffs"], before["b_coeffs"], atol=1e-12)


class TestPerturbationDetection:
    def test_both_residuals_flag_a_broken_pair(self):
        base = dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        eps = 1e-3
        from sdconformal.expr import parse
        bump = eps * parse("t", ("x", "y", "t", "z"))
        broken = ProjectivePair(
            ("t", "z"),
            [base.alpha[0][0] + bump, base.alpha[0][1]],
            list(base.alpha[1]),
            list(base.phi[0]),
            list(base.phi[1]),
        )
        pts = _grid({"t": 0.2, "z": 0.7})
        assert max_abs(lax_residual(build_lax(FLAT, broken),
                                   pts)["residual"]) > eps / 10
        assert max_abs(projective_pair_residual(FLAT, broken, pts)) > eps / 10


class TestGaugeClassification:
    PTS2 = _grid({"w1": 0.3, "w2": -0.4})

    def _flags(self, pair, pts):
        flags, _ = gauge_reduction_report(pair, pts, TOLERANCES["gauge"])
        return flags

    def test_trivial_pair_is_maximally_reduced(self):
        flags = self._flags(trivial_pair(), self.PTS2)
        assert all(flags.values())

    def test_area_preserving_fields(self):
        pair = ProjectivePair(("w1", "w2"), *ex([
                              ["w2^2", "0"], ["0", "w1*w2 - w1*w2"],
                              ["1", "0"], ["0", "1"]]))
        flags = self._flags(pair, self.PTS2)
        assert flags["sdiff2"] and flags["hdiff2"] and flags["phi_sdiff"]

    def test_fiber_dependent_divergence(self):
        pair = ProjectivePair(("w1", "w2"), *ex([
                              ["w1*w2", "0"], ["0", "0"],
                              ["1", "0"], ["0", "1"]]))
        flags = self._flags(pair, self.PTS2)
        assert not flags["sdiff2"]
        assert not flags["hdiff2"]

    def test_constant_divergence_is_hamiltonian_up_to_center(self):
        pair = ProjectivePair(("w1", "w2"), *ex([
                              ["x*w1", "0"], ["0", "0"],
                              ["1", "0"], ["0", "1"]]))
        flags = self._flags(pair, self.PTS2)
        assert not flags["sdiff2"]
        assert flags["hdiff2"]

    def test_twist_free_single_fiber(self):
        pair = twist_free_normal_form(FLAT, ex("y/x"), points=TWISTFREE_POINT,
                                      tol=TOLERANCES["build"])
        flags = self._flags(pair, _grid({"z": 0.7}))
        assert not flags["sdiff2"]          # div alpha0 = -1/x
        assert flags["hdiff2"]
        assert flags["phi_sdiff"]
        assert flags["o_times_diff1"]
        assert flags["aff1_translational"]  # alpha affine, phi z-free

    def test_twisting_pair_loses_translational_reduction(self):
        P = ProjectiveSurface.from_spray(*ex(["0", "0", "0", "0.5"]))
        pair = dw_quadrature_build(P, *ex(["0", 0.7, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        flags = self._flags(pair, _grid({"t": 0.2, "z": 0.7}))
        assert flags["o_times_diff1"]
        assert not flags["aff1_translational"]   # phi0 depends on z
        assert not flags["phi_sdiff"]            # div phi0 = -0.7

    def test_untwisted_quadrature_pair(self):
        pair = dw_quadrature_build(FLAT, *ex(["y/x", 0.0, "1", "z"]),
                                   points=DW_POINT, tol=TOLERANCES["build"])
        flags = self._flags(pair, _grid({"t": 0.2, "z": 0.7}))
        assert flags["hdiff2"]
        assert flags["phi_sdiff"]
        assert flags["aff1_translational"]


class TestAreaConnection:
    def test_trivial_pair_is_flat(self):
        pair = trivial_pair()
        pts = _grid({"w1": 0.3, "w2": -0.4})
        assert area_connection_curvature(pair, pts) == 0.0

    def test_non_closed_divergences_curve(self):
        # rho(X) = x, rho(Y) = x: curl component d_x(x) - d_y(x) = 1
        pair = ProjectivePair(("w1", "w2"), *ex([
                              ["x*w1", "0"], ["0", "x*w2"],
                              ["1", "0"], ["0", "1"]]))
        pts = _grid({"w1": 0.3, "w2": -0.4})
        assert area_connection_curvature(pair, pts) == pytest.approx(1.0)

    def test_closed_divergence_pair_is_flat(self):
        # rho(X) = y, rho(Y) = x is fiber-independent with zero curl, so
        # the divergence is removable by a base rescaling of the area form
        pair = ProjectivePair(("w1", "w2"), *ex([
                              ["y*w1", "0"], ["0", "x*w2"],
                              ["1", "0"], ["0", "1"]]))
        pts = _grid({"w1": 0.3, "w2": -0.4})
        assert area_connection_curvature(pair, pts) < 1e-14


# -- the ordered bracket against the loops it replaced ----------------------


def _coefficients(rng, shape):
    """Random coefficients with some +0, -0, NaN and inf entries."""
    a = rng.standard_normal(shape)
    kind = rng.random(shape)
    a[kind < 0.05] = 0.0
    a[(kind >= 0.05) & (kind < 0.1)] = -0.0
    a[(kind >= 0.1) & (kind < 0.12)] = np.nan
    a[(kind >= 0.12) & (kind < 0.13)] = np.inf
    a[(kind >= 0.13) & (kind < 0.14)] = -np.inf
    return a


def _operands(rng, n, first, batches):
    """(u, v) in `lie_bracket`'s layout with n components and a spare
    derivative slot: separate arrays with the two batch shapes, or, for
    one batch shape, two views into one array (as the residuals pass)."""
    slots = 2 + first + n
    if len(batches) == 1:
        both = _coefficients(rng, batches[0] + (2, n, slots))
        return both[..., 0, :, :], both[..., 1, :, :]
    return tuple(_coefficients(rng, b + (n, slots)) for b in batches)


def _jet(c):
    """The order-1 jet whose slots `c` holds.  A jet has at most MAX_VARS
    variables, so for first = 2 and three components the spare slot, which
    the kernels never read, is left out."""
    nvars = min(c.shape[-1] - 1, MAX_VARS)
    return Jet(JetSpace(tuple("abcde"[:nvars]), 1), c[..., :nvars + 1])


BATCHES = [((),), ((16,),), ((4, 3),), ((), ()), ((9,), (9,)),
           ((5, 1), (1, 3)), ((1,), (6,)), ((2, 3), (3,)), ((4,), ())]


def _same_bits(got, want):
    """Equal shapes, NaN at the same entries and the same bits at every
    other one (+-0 apart).  A NaN's sign and payload are not compared:
    when two NaNs meet, which one numpy's add passes on depends on the
    loop it takes for the array's length."""
    nan = np.isnan(got)
    return (got.shape == want.shape and np.array_equal(nan, np.isnan(want))
            and got[~nan].tobytes() == want[~nan].tobytes())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("batches", BATCHES)
def test_ordered_bracket_is_the_pair_residual_loop(n, batches):
    rng = np.random.default_rng([n, len(batches), len(batches[0])])
    for first in (0, 1, 2):
        for _ in range(4):
            u, v = _operands(rng, n, first, batches)
            with np.errstate(all="ignore"):
                got = ordered_bracket(_jet(u), _jet(v), first)
                want = fiber_bracket_loop(u, v, first)
            assert _same_bits(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("batches", BATCHES)
def test_ordered_bracket_is_the_projective_field_loop(n, batches):
    rng = np.random.default_rng([n, len(batches), len(batches[-1])])
    for _ in range(4):
        u, v = _operands(rng, n, 0, batches)
        with np.errstate(all="ignore"):
            got = ordered_bracket(_jet(u), _jet(v))
            want = field_bracket_loop(u, v)
        assert _same_bits(got, want)
