"""4-metric assembly, curvature splitting, and the structure checks."""

from pathlib import Path

import numpy as np
import pytest

from sdconformal import cli, conformal
from sdconformal.expr import as_expression, jets_at
from sdconformal.jets import Jet, JetSpace, max_abs, stack
from sdconformal.projective import ProjectiveSurface
from sdconformal.pairs import ProjectivePair, dw_quadrature_build
from sdconformal.sampling import halton_points
from sdconformal.conformal import (MetricBuilder, curvature_report,
                                   killing_report, christoffel_jets_4d,
                                   frobenius_residual, build_null_kahler,
                                   hodge_star_operator, jet_gauss_solve,
                                   jet_matrix_inverse, lstsq)
from oracles import (builder_frame, certify_selfdual, christoffel_sum16,
                     dense_hodge_star, four_product_metric, frame_values,
                     full_solve_metric, null_kahler_check, point_rows,
                     reference_gauss_solve, sample_set, trivial_pair,
                     unstack)

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
        Ainv = unstack(jet_matrix_inverse(stack(A)), 2)
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
            g, orientation = builder.jets(pt)
            rep = curvature_report(g, orientation)
            assert max_abs(rep["riemann"]) < 1e-12
            assert max_abs(rep["star_defect"]) < 1e-12
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
        rep = null_kahler_check(nk["check"], nk["metric"], pts)
        assert max_abs(rep["J_null"]) == 0.0
        assert max_abs(rep["domega"]) < 1e-12
        assert max_abs(rep["compat"]) < 1e-10
        assert max_abs(rep["g_JJ"]) < 1e-10
        assert max_abs(rep["killing"]) < 1e-12
        assert max_abs(rep["omega_antiselfdual"]) < 1e-10

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
        assert nk["metric"].jets(pt, order=0)[1] == -1.0
        dw = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        assert MetricBuilder(pair=dw).jets(pt, order=0)[1] == 1.0

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
        pts = _points4(n=5)
        g, _ = builder.jets(pts, order=1)
        rep = killing_report(g, {"K": ("0", "0", "1", "0")}, pts)["K"]
        assert max_abs(rep["exact_killing"]) < 1e-12
        assert max_abs(rep["null_defect"]) < 1e-12
        assert max_abs(rep["geodesic"]) < 1e-10

    def test_twist_tracks_the_twisting_parameter(self):
        P = ProjectiveSurface.from_spray("0", "0", "0", "0.5")
        pts = _points4(n=5)
        twisted = dw_quadrature_build(P, "0", 0.7, "1", "z")
        g, _ = MetricBuilder(pair=twisted).jets(pts, order=1)
        rep = killing_report(g, {"K": ("0", "0", "1", "0")}, pts)["K"]
        assert max_abs(rep["twist"]) > 1e-3
        # the density is point-to-point proportional to a constant here
        ratios = np.array(rep["twist"])
        assert np.abs(ratios - ratios[0]).max() < 1e-8

    def test_twist_vanishes_without_twisting(self):
        straight = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        pts = _points4(n=5)
        g, _ = MetricBuilder(pair=straight).jets(pts, order=1)
        rep = killing_report(g, {"K": ("0", "0", "1", "0")}, pts)["K"]
        assert max_abs(rep["twist"]) < 1e-12


class TestFrobenius:
    COORDS = ("x", "y", "t", "z")

    def test_null_planes_of_a_certified_pair_are_integrable(self):
        pair = dw_quadrature_build(FLAT, "y/x", 0.0, "1", "z")
        pts = _points4(n=4)
        # the two lam = 0 Lax fields in coordinates (x, y, t, z)
        phi0 = ["0", "0"] + [str(c) for c in pair.phi[0]]
        l1 = ["1", "0"] + [str(c) for c in pair.alpha[0]]
        res = frobenius_residual([phi0, l1], self.COORDS, pts)
        assert max_abs(res) < 1e-12
        # the vertical plane
        phi1 = ["0", "0"] + [str(c) for c in pair.phi[1]]
        res = frobenius_residual([phi0, phi1], self.COORDS, pts)
        assert max_abs(res) < 1e-12

    def test_non_integrable_plane_is_flagged(self):
        fields = [["1", "0", "0", "0"], ["0", "1", "x", "0"]]
        res = frobenius_residual(fields, self.COORDS, _points4(n=4))
        assert max_abs(res) > 0.1


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


# -- the low slots of a jet do not depend on its order ------------------------
#
# A product's slot of degree <= k sums the same nonzero pairs in the same
# order at every truncation order; the extra pairs add exact zeros to a sum
# that starts at 0.0.  So a command may evaluate each jet only to the order
# it reads.

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def _scene_metric(name):
    """The metric a 4-D command evaluates on a checked-in scene, and 32
    Halton points of the scene's box."""
    scene = cli.load_scene(SCENES / f"{name}.json")
    if "build" in scene:
        spec = scene["build"]
        builder = build_null_kahler(spec["a"], spec["c"], spec["f"])["metric"]
    else:
        builder = cli._metric_builder(scene)
    box = scene["sampling"]["box"]
    return builder, halton_points(builder.coords, box, 32)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["flat", "nullkahler_hk",
                                  "nullkahler_random"])
class TestTruncationOrder:
    def test_metric_jets(self, name):
        builder, pts = _scene_metric(name)
        g2, orientation2 = builder.jets(pts, order=2)
        g1, orientation1 = builder.jets(pts, order=1)
        assert _same_bits(g1.coeffs, g2.truncate(1).coeffs)
        assert _same_bits(orientation1, orientation2)
        assert np.all(np.abs(orientation2) == 1.0)

    def test_solves(self, name):
        builder, pts = _scene_metric(name)
        frame = jets_at(builder_frame(builder), JetSpace(builder.coords, 2),
                        pts)
        g, _ = builder.jets(pts, order=2)
        for A, B in ((frame, frame.space.constant(np.eye(4))), (frame, g),
                     (g, frame)):
            full = stack(jet_gauss_solve(A, B))
            for k in (0, 1):
                low = stack(jet_gauss_solve(A.truncate(k), B.truncate(k)))
                assert _same_bits(low.coeffs, full.truncate(k).coeffs)

    def test_christoffel_values(self, name):
        builder, pts = _scene_metric(name)
        gam2, ginv2 = christoffel_jets_4d(builder.jets(pts)[0])
        gam1, ginv1 = christoffel_jets_4d(builder.jets(pts, order=1)[0])
        assert gam2.space.order == 1 and gam1.space.order == 0
        assert _same_bits(gam1.coeffs, gam2.truncate(0).coeffs)
        assert _same_bits(ginv1.coeffs, ginv2.truncate(0).coeffs)


# -- the 4-D kernels against the dense forms they replaced --------------------
#
# `MetricBuilder.jets` forms g from two jet products and their transposes,
# `christoffel_jets_4d` only the pairs c >= b, and `hodge_star_operator`
# only the 24 nonzero entries of eps; `tests/oracles.py` keeps the four
# products, the 16-pair sum and the dense einsum.  Metric and
# Christoffels agree bit for bit; the star agrees bit for bit up to the
# sign of a zero.

BATCHES = [(), (7,), (3, 5)]
COORDS4 = ("x", "y", "t", "z")


def _split_metric_values(rng, batch):
    """Random bitwise-symmetric metric values of signature (2, 2)."""
    A = rng.standard_normal(batch + (4, 4))
    v = A.swapaxes(-1, -2) @ np.diag([1.0, 1.0, -1.0, -1.0]) @ A
    return 0.5 * (v + v.swapaxes(-1, -2))


def _symmetric_metric_jets(rng, batch, order):
    """Order-`order` jets of a random symmetric metric of signature (2, 2)
    at the points of `batch`."""
    space = JetSpace(COORDS4, order)
    c = rng.standard_normal(batch + (4, 4, len(space)))
    c = 0.5 * (c + c.swapaxes(-3, -2))
    c[..., 0] = _split_metric_values(rng, batch)
    return Jet(space, c)


def _poly(rng, const, size):
    """A random polynomial on (x, y, w1, w2): `const` plus four monomials
    with coefficients in [-size, size]."""
    terms = [f"{c:.3f}*{m}" for c, m in zip(
        rng.uniform(-size, size, 4), ("x", "y*w1", "w2*w2", "x*w1*y"))]
    return " + ".join([f"{const:.3f}"] + terms)


def _random_builder(rng, kind, factor):
    """The metric of a pair with polynomial phi and alpha, its phi block
    invertible on the unit box; or, "pivoting", of such a pair whose phi
    entries all vanish at the origin, so that which row is the largest in
    a column varies over the box; or, "dense", of a frame with no zero
    entry, near the identity, which no pair gives: the coframe of a pair
    has zero blocks, so at most two of the four products meet there."""
    diag, size = (0.0, 1.0) if kind == "pivoting" else (1.0, 0.2)
    pair = ProjectivePair(
        ("w1", "w2"),
        alpha0=[_poly(rng, rng.uniform(-1, 1), 0.2) for _ in "ab"],
        alpha1=[_poly(rng, rng.uniform(-1, 1), 0.2) for _ in "ab"],
        phi0=[_poly(rng, diag, size), _poly(rng, 0.0, size)],
        phi1=[_poly(rng, 0.0, size), _poly(rng, diag, size)])
    builder = MetricBuilder(pair=pair, factor=factor)
    if kind == "dense":
        builder.frame = [[as_expression(_poly(rng, (i == j) + 0.1, 0.03),
                                        builder.coords)
                          for j in range(4)] for i in range(4)]
    return builder


def _box_points(rng, names, batch):
    return {name: rng.uniform(-1.0, 1.0, batch) for name in names}


def _same_abs_bits(a, b):
    return _same_bits(np.abs(a), np.abs(b))


@pytest.mark.parametrize("batch", BATCHES)
class TestKernelsMatchTheirReferences:
    @pytest.mark.parametrize("kind", ["pair", "dense"])
    @pytest.mark.parametrize("factor", [None, "1 + 0.25*x*w2"])
    def test_metric_assembly(self, batch, kind, factor):
        rng = np.random.default_rng([len(batch), sum(batch), len(kind)])
        for _ in range(3):
            builder = _random_builder(rng, kind, factor)
            pts = _box_points(rng, builder.coords, batch)
            for order in (1, 2):
                if kind == "pair":
                    g, _ = builder.jets(pts, order=order)
                else:   # only the full solve takes a frame no pair gives
                    g = full_solve_metric(builder, pts, order)
                want = four_product_metric(builder, pts, order)
                assert g.coeffs.shape == batch + (4, 4, len(g.space))
                assert _same_bits(g.coeffs, want.coeffs)

    @pytest.mark.parametrize("kind", ["pair", "pivoting"])
    @pytest.mark.parametrize("factor", [None, "1 + 0.25*x*w2"])
    def test_fibre_block_elimination(self, batch, kind, factor):
        # the elimination of the fibre block alone is the full frame solve
        # to the bit: the full solve's pivots on the unit rows change no
        # entry that reaches theta^0, theta^1 or g
        rng = np.random.default_rng([len(batch), sum(batch), len(kind)])
        for _ in range(3):
            builder = _random_builder(rng, kind, factor)
            pts = _box_points(rng, builder.coords, batch)
            for order in (0, 1, 2, 3):
                g, _ = builder.jets(pts, order=order)
                want = full_solve_metric(builder, pts, order)
                assert _same_bits(g.coeffs, want.coeffs)

    @pytest.mark.parametrize("kind", ["pair", "pivoting"])
    def test_orientation_is_the_sign_of_the_frame_determinant(self, batch,
                                                              kind):
        # det [[0, Phi], [I, A]] = det Phi, and LAPACK's LU of the 4x4
        # frame pivots on the two unit rows first, then factors Phi as it
        # factors Phi alone: the signs agree to the bit
        rng = np.random.default_rng([len(batch), sum(batch), len(kind), 4])
        signs = set()
        for _ in range(3):
            builder = _random_builder(rng, kind, None)
            pts = _box_points(rng, builder.coords, batch)
            for order in (0, 2):
                _, orientation = builder.jets(pts, order=order)
                want = np.sign(np.linalg.det(frame_values(builder, pts)))
                assert np.shape(orientation) == batch
                assert _same_bits(np.asarray(orientation), np.asarray(want))
                signs.update(np.ravel(orientation).tolist())
        assert signs <= {-1.0, 1.0}
        if kind == "pivoting" and batch:
            assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_christoffels(self, batch, order):
        rng = np.random.default_rng([len(batch), sum(batch), order])
        for _ in range(3):
            g = _symmetric_metric_jets(rng, batch, order)
            gam, ginv = christoffel_jets_4d(g)
            want_gam, want_ginv = christoffel_sum16(g, COORDS4)
            assert gam.coeffs.shape == batch + (4, 4, 4, len(gam.space))
            assert _same_bits(gam.coeffs, want_gam.coeffs)
            assert _same_bits(ginv.coeffs, want_ginv.coeffs)

    def test_christoffels_of_an_asymmetric_array(self, batch):
        # a metric that is not bitwise symmetric is read at c >= b only,
        # as the 16-pair sum reads it
        rng = np.random.default_rng([len(batch), sum(batch), 9])
        g = _symmetric_metric_jets(rng, batch, 2)
        g.coeffs[..., 0, 1, :] *= 1.0 + 1e-12
        gam, _ = christoffel_jets_4d(g)
        assert _same_bits(gam.coeffs, christoffel_sum16(g, COORDS4)[0].coeffs)

    @pytest.mark.parametrize("orientation", [1.0, -1.0, "mixed"])
    def test_star(self, batch, orientation):
        rng = np.random.default_rng([len(batch), sum(batch), 2])
        if orientation == "mixed":
            orientation = np.where(rng.random(batch) < 0.5, -1.0, 1.0)
        for _ in range(3):
            gv = _split_metric_values(rng, batch)
            giv = np.linalg.inv(gv)
            star = hodge_star_operator(gv, giv, orientation)
            want = dense_hodge_star(gv, giv, orientation)
            assert star.shape == batch + (4, 4, 4, 4)
            assert _same_abs_bits(star, want)

    def test_star_squares_to_the_identity_on_two_forms(self, batch):
        rng = np.random.default_rng([len(batch), sum(batch), 3])
        gv = _split_metric_values(rng, batch)
        star = hodge_star_operator(gv, np.linalg.inv(gv), 1.0)
        star_sq = np.einsum("...abmn,...mncd->...abcd", star, star)
        eye = np.eye(4)
        antisym = 0.5 * (np.einsum("ac,bd->abcd", eye, eye)
                         - np.einsum("ad,bc->abcd", eye, eye))
        size = np.abs(star).max(axis=(-4, -3, -2, -1)) ** 2
        defect = np.abs(star_sq - antisym).max(axis=(-4, -3, -2, -1))
        assert np.all(defect <= 1e-12 * np.maximum(size, 1.0))


@pytest.mark.parametrize("name", ["flat", "nullkahler_hk",
                                  "nullkahler_random"])
class TestSceneKernelsMatchTheirReferences:
    def test_metric_assembly(self, name):
        builder, pts = _scene_metric(name)
        for order in (0, 1, 2):
            g, _ = builder.jets(pts, order=order)
            want = four_product_metric(builder, pts, order)
            assert _same_bits(g.coeffs, want.coeffs)

    def test_christoffels(self, name):
        builder, pts = _scene_metric(name)
        for order in (1, 2):
            g, _ = builder.jets(pts, order=order)
            gam, ginv = christoffel_jets_4d(g)
            want_gam, want_ginv = christoffel_sum16(g, builder.coords)
            assert _same_bits(gam.coeffs, want_gam.coeffs)
            assert _same_bits(ginv.coeffs, want_ginv.coeffs)

    def test_star(self, name):
        builder, pts = _scene_metric(name)
        g, orientation = builder.jets(pts, order=0)
        gv = np.ascontiguousarray(g.value)
        giv = np.linalg.inv(gv)
        star = hodge_star_operator(gv, giv, orientation)
        assert _same_abs_bits(star, dense_hodge_star(gv, giv, orientation))
        star_sq = np.einsum("...abmn,...mncd->...abcd", star, star)
        assert np.all(np.abs(star_sq - conformal._ANTISYM) <= 1e-12)
