"""4-metric assembly, curvature splitting, and the structure checks."""

import numpy as np
import pytest

from sdconformal.jets import Jet, JetSpace, stack
from sdconformal.projective import ProjectiveSurface
from sdconformal.pairs import dw_quadrature_build
from sdconformal.conformal import (MetricBuilder, curvature_report,
                                   killing_report,
                                   frobenius_residual, build_null_kahler,
                                   jet_gauss_solve, jet_matrix_inverse,
                                   frame_values, lstsq)
from oracles import (certify_selfdual, point_rows, reference_gauss_solve,
                     sample_set, trivial_pair)

FLAT = ProjectiveSurface.flat()


def _points4(names=("x", "y", "t", "z"), n=6, seed=5):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        v = rng.uniform(0.6, 1.4, size=4)
        pts.append(dict(zip(names, v)))
    return sample_set(pts)


class TestJetLinearAlgebra:
    def test_matrix_inverse(self):
        space = JetSpace(("x", "y"), 2)
        env = space.seed({"x": 0.4, "y": -0.3})
        x, y = env["x"], env["y"]
        one = space.constant(1.0)
        zero = space.constant(0.0)
        A = [[one + x * y, x, zero, zero],
             [y, one, zero, zero],
             [zero, zero, one, x * x],
             [x, zero, zero, one + y]]
        Ainv = jet_matrix_inverse(A)
        for i in range(4):
            for j in range(4):
                prod = sum((A[i][k] * Ainv[k][j]).truncate(2)
                           for k in range(4))
                want = 1.0 if i == j else 0.0
                assert abs(prod.value - want) < 1e-13
                assert np.abs(prod.coeffs[1:]).max() < 1e-12


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _system(rng, space, batch, n, m, kind):
    """Random jet matrices A (batch + n x n) and B (batch + n x m).
    "forced": the diagonal's constant terms vanish at some points, so the
    pivot row moves there; "sparse": some entries are the zero jet at
    every point, so their rows are skipped at that column."""
    A = rng.standard_normal(batch + (n, n, len(space)))
    B = rng.standard_normal(batch + (n, m, len(space)))
    if kind == "forced":
        A[..., range(n), range(n), 0] *= rng.random(batch + (n,)) < 0.5
    elif kind == "sparse":
        A *= ((rng.random((n, n)) < 0.5) | np.eye(n, dtype=bool))[..., None]
        A[..., range(n), range(n), 0] += 3.0
    return Jet(space, A), Jet(space, B)


class TestGaussSolveMatchesReference:
    """`jet_gauss_solve` eliminates on the live columns of [A | B] and
    swaps only moved rows; `oracles.reference_gauss_solve` permutes and
    eliminates all of A and B.  They agree bit for bit."""

    @pytest.mark.parametrize("n,m", [(4, 4), (2, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (32,), (3, 4)])
    @pytest.mark.parametrize("kind", ["random", "forced", "sparse"])
    def test_bitwise(self, n, m, batch, kind):
        rng = np.random.default_rng([n, m, len(batch), sum(batch),
                                     len(kind)])
        for nvars in range(2, 6):
            for order in range(4):
                space = JetSpace(tuple("abcde"[:nvars]), order)
                A, B = _system(rng, space, batch, n, m, kind)
                got = stack(jet_gauss_solve(A, B)).coeffs
                want = stack(reference_gauss_solve(A, B)).coeffs
                assert got.shape == want.shape == batch + (n, m, len(space))
                assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
    def test_unbatched_right_hand_sides(self, batch):
        # jet_matrix_inverse solves against one identity for all points;
        # a batched B against one A broadcasts the same way
        rng = np.random.default_rng(len(batch))
        for order in range(4):
            space = JetSpace(("x", "y", "t", "z"), order)
            A, B = _system(rng, space, batch, 4, 4, "forced")
            eye = np.zeros((4, 4, len(space)))
            eye[range(4), range(4), 0] = 1.0
            got = stack(jet_matrix_inverse(A)).coeffs
            want = stack(reference_gauss_solve(A, Jet(space, eye))).coeffs
            assert np.array_equal(_bits(got), _bits(want))
            one = Jet(space, A.coeffs[(0,) * len(batch)])
            got = stack(jet_gauss_solve(one, B)).coeffs
            want = stack(reference_gauss_solve(one, B)).coeffs
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("column", [0, 2])
    def test_singular_matrix_raises_what_the_reference_raises(self, column):
        # a matrix whose constant part is singular at one point: the
        # column of pivot candidates is all zero there at `column`
        rng = np.random.default_rng(column)
        space = JetSpace(("x", "y"), 2)
        A, B = _system(rng, space, (5,), 3, 2, "random")
        if column == 0:
            A.coeffs[3, :, 0, 0] = 0.0
        else:   # third row a combination of the first two at point 3
            A.coeffs[3, 2, :, 0] = A.coeffs[3, 0, :, 0] + A.coeffs[3, 1, :, 0]
        for solve in (jet_gauss_solve, reference_gauss_solve):
            with pytest.raises(np.linalg.LinAlgError,
                               match="^singular jet matrix$"):
                solve(A, B)


class TestFlatMetric:
    def test_trivial_pair_gives_flat_split_metric(self):
        builder = MetricBuilder(pair=trivial_pair())
        for pt in point_rows(_points4(("x", "y", "w1", "w2"), 4)):
            rep = curvature_report(builder.jets(pt), builder.coords,
                                   builder.orientation(pt))
            assert rep["riemann"] < 1e-12
            assert rep["star_defect"] < 1e-12
            assert rep["signature_ok"]

    def test_certifier_passes_the_trivial_scene(self):
        out = certify_selfdual(FLAT, trivial_pair(),
                               _points4(("x", "y", "w1", "w2"), 4))
        assert out["pass"]
        assert out["weyl_minus"] < 1e-12


class TestNullKahlerFamily:
    CASES = [
        ("0.3*x + 0.1*y", "0.2*x - 0.4*y", "1 + 0.25*x*z"),
        ("0.4*x", "0", "1"),
        ("0", "0.7", "1 + 0.1*z^2"),
    ]

    @pytest.mark.parametrize("a,c,f", CASES)
    def test_structure_identities(self, a, c, f):
        nk = build_null_kahler(a, c, f)
        pts = _points4(n=5)
        rep = nk["check"](pts)
        assert rep["J_null"] == 0.0
        assert rep["domega"] < 1e-12
        assert rep["compat"] < 1e-10
        assert rep["g_JJ"] < 1e-10
        assert rep["killing"] < 1e-12
        assert rep["omega_antiselfdual"] < 1e-10

    @pytest.mark.parametrize("a,c,f", CASES)
    def test_antiselfdual_weyl_vanishes(self, a, c, f):
        nk = build_null_kahler(a, c, f)
        out = certify_selfdual(nk["surface"], nk["pair"], _points4(n=5),
                               factor=f)
        assert out["pass"]
        assert out["weyl_minus"] < 1e-8

    @pytest.mark.parametrize("a,c,f", [
        ("0", "0.2*x - 0.4*y", "1"),
        ("0.4*x", "0", "1/z^2"),
    ])
    def test_ricci_flat_subfamilies(self, a, c, f):
        nk = build_null_kahler(a, c, f)
        out = certify_selfdual(nk["surface"], nk["pair"], _points4(n=5),
                               factor=f)
        assert out["pass"]
        assert out["ricci"] < 1e-9

    def test_generic_factor_breaks_ricci_flatness(self):
        nk = build_null_kahler("0.3*x + 0.1*y", "0.2*x - 0.4*y",
                               "1 + 0.25*x*z")
        out = certify_selfdual(nk["surface"], nk["pair"], _points4(n=5),
                               factor="1 + 0.25*x*z")
        assert out["pass"]
        assert out["ricci"] > 1e-3


class TestConformalInvariance:
    def test_rescaling_preserves_the_verdict(self):
        nk = build_null_kahler("0.3*x + 0.1*y", "0.2*x - 0.4*y", "1")
        pts = _points4(n=4)
        plain = certify_selfdual(nk["surface"], nk["pair"], pts, factor="1")
        scaled = certify_selfdual(nk["surface"], nk["pair"], pts,
                                  factor="exp(x/4)*(1 + y^2/8)")
        assert plain["pass"] and scaled["pass"]
        assert scaled["weyl_minus"] < 1e-8


class TestOrientation:
    def test_frame_orientation_signs(self):
        nk = build_null_kahler("0.3*x", "0.2*y", "1")
        pt = {"x": 1.0, "y": 1.1, "t": 0.9, "z": 1.2}
        assert nk["metric"].orientation(pt) == -1.0
        dw = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        assert MetricBuilder(pair=dw).orientation(pt) == 1.0

    def test_frame_values_shape(self):
        dw = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        M = frame_values(MetricBuilder(pair=dw),
                         {"x": 1.0, "y": 1.3, "t": 0.2, "z": 0.7})
        assert M.shape == (4, 4)
        assert abs(np.linalg.det(M)) > 1e-6


class TestKillingField:
    def test_vertical_translation_is_null_killing(self):
        P = ProjectiveSurface.from_spray("0", "0", "0", "0.5")
        pair = dw_quadrature_build(P, "0", 0.7, "1", "z")
        builder = MetricBuilder(pair=pair)
        rep = killing_report(builder, ("0", "0", "1", "0"), _points4(n=5))
        assert rep["exact_killing"] < 1e-12
        assert rep["null_defect"] < 1e-12
        assert rep["geodesic"] < 1e-10

    def test_twist_tracks_the_twisting_parameter(self):
        P = ProjectiveSurface.from_spray("0", "0", "0", "0.5")
        pts = _points4(n=5)
        twisted = dw_quadrature_build(P, "0", 0.7, "1", "z")
        rep = killing_report(MetricBuilder(pair=twisted),
                             ("0", "0", "1", "0"), pts)
        assert rep["twist_max"] > 1e-3
        # the density is point-to-point proportional to a constant here
        ratios = np.array(rep["twist"])
        assert np.abs(ratios - ratios[0]).max() < 1e-8

    def test_twist_vanishes_without_twisting(self):
        straight = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        rep = killing_report(MetricBuilder(pair=straight),
                             ("0", "0", "1", "0"), _points4(n=5))
        assert rep["twist_max"] < 1e-12


class TestFrobenius:
    COORDS = ("x", "y", "t", "z")

    def test_null_planes_of_a_certified_pair_are_integrable(self):
        pair = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        pts = _points4(n=4)
        # the two lam = 0 Lax fields in coordinates (x, y, t, z)
        phi0 = ["0", "0"] + [str(c) for c in pair.phi[0]]
        l1 = ["1", "0"] + [str(c) for c in pair.alpha[0]]
        assert frobenius_residual([phi0, l1], self.COORDS, pts) < 1e-12
        # the vertical plane
        phi1 = ["0", "0"] + [str(c) for c in pair.phi[1]]
        assert frobenius_residual([phi0, phi1], self.COORDS, pts) < 1e-12

    def test_non_integrable_plane_is_flagged(self):
        fields = [["1", "0", "0", "0"], ["0", "1", "x", "0"]]
        res = frobenius_residual(fields, self.COORDS, _points4(n=4))
        assert res > 0.1


class TestStackedLstsq:
    """`lstsq` runs numpy's least-squares gufunc on a stack in one call.
    It must give `np.linalg.lstsq`'s bits and errors: a numpy upgrade
    that changes either fails here."""

    # (batch, M, N, K); 64 x 7 systems of 3 x 1 as projective-field solves
    @pytest.mark.parametrize("batch,m,n,k", [((64, 7), 3, 1, 1),
                                             ((16, 3), 4, 2, 1),
                                             ((5, 6), 4, 3, 2),
                                             ((9, 2), 2, 3, 1)])
    def test_matches_numpy_lstsq_bit_for_bit(self, batch, m, n, k):
        rng = np.random.default_rng(m * 10 + n)
        a = rng.standard_normal(batch + (m, n))
        a *= 10.0 ** rng.integers(-3, 4, batch + (1, 1))
        a[0, 0, :, -1] = a[0, 0, :, 0]   # a rank-deficient system
        a[1, 0, :, -1] *= 1e-13          # rank decided by rcond
        b = rng.standard_normal(batch + (m, k))
        x = lstsq(a, b)
        assert x.shape == batch + (n, k)
        for idx in np.ndindex(batch):
            want, _, _, _ = np.linalg.lstsq(a[idx], b[idx], rcond=None)
            assert x[idx].tobytes() == want.tobytes()

    def test_nan_raises_what_numpy_raises(self):
        a = np.ones((4, 3, 1))
        b = np.ones((4, 3, 1))
        a[2, 1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.lstsq(a[2], b[2], rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as got:
            lstsq(a, b)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_a_raises_before_lapack(self, capfd, bad):
        # LAPACK's DLASCL used to write "illegal value" lines straight to
        # fd 1 before the error came
        a = np.ones((4, 3, 1))
        b = np.ones((4, 3, 1))
        a[2, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.lstsq(a[2], b[2], rcond=None)
        capfd.readouterr()
        with pytest.raises(np.linalg.LinAlgError) as got:
            lstsq(a, b)
        assert str(got.value) == str(want.value)
        assert capfd.readouterr() == ("", "")

    def test_non_finite_b_gives_nan_silently(self, capfd):
        a = np.ones((4, 3, 1))
        b = np.ones((4, 3, 1))
        b[2, 1, 0] = np.inf
        x = lstsq(a, b)
        assert np.isnan(x[2]).all() and np.isfinite(np.delete(x, 2, 0)).all()
        assert capfd.readouterr() == ("", "")
