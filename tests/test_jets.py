"""Jet arithmetic: ring axioms, analytic functions, derivative extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from sdconformal.jets import Jet, JetSpace, JetDomainError
from oracles import extract, product_sums
from test_pairs import _coefficients


def _poly(space, x, y):
    # f = 2 + x^2 y - 3 y^3
    return 2.0 + x * x * y - 3.0 * y ** 3


class TestBasics:
    def test_spaces_are_interned(self):
        assert JetSpace(("x", "y"), 3) is JetSpace(("x", "y"), 3)
        assert JetSpace(("x", "y"), 3) is not JetSpace(("y", "x"), 3)

    def test_too_many_variables(self):
        with pytest.raises(ValueError):
            JetSpace(tuple("abcdef"), 1)

    def test_polynomial_coefficients_are_exact(self):
        space = JetSpace(("x", "y"), 3)
        env = space.seed({"x": 1.5, "y": -0.5})
        f = _poly(space, env["x"], env["y"])
        # d^3 f / dx^2 dy = 2 everywhere
        assert extract(f, (2, 1)) == 2.0
        assert extract(f, (0, 3)) == -18.0
        assert f.value == 2.0 + 1.5 ** 2 * (-0.5) - 3.0 * (-0.5) ** 3

    def test_value_and_gradient(self):
        space = JetSpace(("x", "y"), 2)
        env = space.seed({"x": 2.0, "y": 3.0})
        f = env["x"] * env["y"]
        assert f.value == 6.0
        assert np.allclose(f.gradient(), [3.0, 2.0])

    def test_mixed_space_arithmetic_rejected(self):
        a = JetSpace(("x",), 2).constant(1.0)
        b = JetSpace(("y",), 2).constant(1.0)
        with pytest.raises(ValueError):
            _ = a + b


class TestAnalytic:
    def test_exp_log_roundtrip(self):
        space = JetSpace(("x", "y", "z"), 3)
        env = space.seed({"x": 0.3, "y": 1.2, "z": -0.4})
        f = 1.0 + env["x"] * env["y"] + env["z"] ** 2
        back = f.exp().log()
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-14)

    def test_sqrt_squares(self):
        space = JetSpace(("u",), 4)
        u = space.variable("u", 2.0)
        g = (1.0 + u * u).sqrt()
        assert np.allclose((g * g).coeffs, (1.0 + u * u).coeffs, atol=1e-13)

    def test_pythagorean_identity(self):
        space = JetSpace(("t",), 5)
        t = space.variable("t", 0.7)
        one = t.sin() ** 2 + t.cos() ** 2
        expected = np.zeros(len(space))
        expected[0] = 1.0
        assert np.allclose(one.coeffs, expected, atol=1e-15)

    def test_reciprocal_of_zero(self):
        space = JetSpace(("x",), 2)
        with pytest.raises(JetDomainError):
            space.constant(0.0).reciprocal()

    def test_log_of_negative(self):
        space = JetSpace(("x",), 2)
        with pytest.raises(JetDomainError):
            space.constant(-1.0).log()

    def test_exp_overflow(self):
        space = JetSpace(("x",), 2)
        with pytest.raises(JetDomainError):
            space.variable("x", [1.0, 800.0]).exp()

    def test_domain_checks_cover_every_point(self):
        space = JetSpace(("x",), 2)
        x = space.variable("x", [1.0, -1.0, 2.0])
        for op in ("log", "sqrt"):
            with pytest.raises(JetDomainError):
                getattr(x, op)()
        with pytest.raises(JetDomainError):
            (x + 1.0).reciprocal()

    @pytest.mark.parametrize("fn", ["log", "sqrt"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_log_and_sqrt_of_a_zero_constant_term_raise(self, fn, zero):
        # math.sqrt(0.0) is 0.0, but the jets' derivatives divide by it
        x = JetSpace(("x",), 0).variable("x", [2.0, zero])
        with pytest.raises(JetDomainError) as exc:
            getattr(x, fn)()
        assert str(exc.value) == (f"{fn} of a jet with nonpositive "
                                  "constant term")

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    @pytest.mark.parametrize("order", [0, 2])
    def test_a_sine_domain_error_names_the_function_called(self, fn, order):
        # cos used to evaluate sin first, and named it in the message
        x = JetSpace(("x",), order).variable("x", [0.5, math.inf])
        with pytest.raises(JetDomainError) as exc:
            getattr(x, fn)()
        assert str(exc.value) == f"{fn} outside its domain at a sample point"

    def test_sqrt_of_negative(self):
        space = JetSpace(("x",), 2)
        with pytest.raises(JetDomainError):
            space.constant(-4.0).sqrt()


class TestDerivatives:
    def test_derivative_drops_order(self):
        space = JetSpace(("x", "y"), 3)
        env = space.seed({"x": 0.5, "y": 0.25})
        f = env["x"].exp() * env["y"]
        fx = f.derivative("x")
        assert fx.space.order == 2
        assert fx.value == pytest.approx(math.exp(0.5) * 0.25, rel=1e-14)

    def test_jet_matches_finite_differences(self):
        # acceptance-style cross-check on a transcendental function
        def f(x, y):
            return math.exp(x * y) * math.sin(x + 2 * y)

        x0, y0, h = 0.4, -0.3, 1e-5
        space = JetSpace(("x", "y"), 2)
        env = space.seed({"x": x0, "y": y0})
        jet = (env["x"] * env["y"]).exp() * (env["x"] + 2.0 * env["y"]).sin()
        fd_x = (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h)
        fd_xy = (f(x0 + h, y0 + h) - f(x0 + h, y0 - h)
                 - f(x0 - h, y0 + h) + f(x0 - h, y0 - h)) / (4 * h * h)
        assert extract(jet, (1, 0)) == pytest.approx(fd_x, abs=1e-6)
        assert extract(jet, (1, 1)) == pytest.approx(fd_xy, abs=1e-5)

    def test_gradient_reads_the_first_order_slots(self):
        space = JetSpace(("x", "y", "z"), 2)
        env = space.seed({"x": 0.5, "y": -1.5, "z": 2.0})
        f = env["x"] * env["y"] * env["z"] + env["y"] ** 2
        for i, mu in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            assert f.gradient()[i] == extract(f, mu)
        with pytest.raises(ValueError):
            JetSpace(("x",), 0).constant(1.0).gradient()

    def test_truncate_cannot_raise_the_order(self):
        with pytest.raises(ValueError):
            JetSpace(("x", "y"), 1).constant(1.0).truncate(2)

    def test_truncate_is_projection(self):
        space = JetSpace(("x", "y"), 3)
        env = space.seed({"x": 1.0, "y": 2.0})
        f = (env["x"] + env["y"]) ** 3
        g = f.truncate(1)
        assert g.space.order == 1
        assert g.value == f.value
        assert np.allclose(g.gradient(), f.gradient())


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=6, max_size=6),
       st.lists(coeff, min_size=6, max_size=6),
       st.lists(coeff, min_size=6, max_size=6))
def test_ring_axioms(a, b, c):
    space = JetSpace(("x", "y"), 2)
    ja, jb, jc = (Jet(space, np.array(v)) for v in (a, b, c))
    assert np.allclose((ja * jb).coeffs, (jb * ja).coeffs)
    lhs = (ja * (jb + jc)).coeffs
    rhs = (ja * jb + ja * jc).coeffs
    assert np.allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(lhs).max()))
    assert np.allclose(((ja * jb) * jc).coeffs, (ja * (jb * jc)).coeffs,
                       atol=1e-8 * (1 + np.abs(lhs).max()))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.integers(min_value=1, max_value=5))
def test_integer_powers_match_repeated_products(x0, n):
    space = JetSpace(("x",), 3)
    x = space.variable("x", x0)
    f = 1.0 + x * 0.5
    by_pow = f ** n
    by_mul = space.constant(1.0)
    for _ in range(n):
        by_mul = by_mul * f
    assert np.allclose(by_pow.coeffs, by_mul.coeffs, rtol=1e-12)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _coeffs(rng, shape):
    """Random coefficients with exact zeros and negative zeros mixed in."""
    c = rng.standard_normal(shape)
    c[rng.random(shape) < 0.1] = 0.0
    c[rng.random(shape) < 0.1] = -0.0
    return c


class TestProductSums:
    """`JetSpace.product` adds each slot's terms in pair order from 0.0,
    the sum `oracles.product_sums` forms in plain Python."""

    SPACES = [(nvars, order) for nvars in (1, 2, 3, 5) for order in range(4)]

    @pytest.mark.parametrize("nvars,order", SPACES)
    @pytest.mark.parametrize("batch", [(), (7,), (2, 3), (2, 1, 3)])
    def test_batches(self, nvars, order, batch):
        space = JetSpace(tuple("abcde"[:nvars]), order)
        rng = np.random.default_rng([nvars, order, len(batch)])
        a, b = (_coeffs(rng, batch + (len(space),)) for _ in range(2))
        got = space.product(a, b)
        assert got.shape == batch + (len(space),)
        assert np.array_equal(_bits(got), _bits(product_sums(space, a, b)))

    @pytest.mark.parametrize("nvars,order", SPACES)
    @pytest.mark.parametrize("shapes", [((4,), ()), ((), (3,)),
                                        ((2, 1), (1, 3)), ((5, 1, 2), (2,))])
    def test_broadcast_operands(self, nvars, order, shapes):
        space = JetSpace(tuple("abcde"[:nvars]), order)
        rng = np.random.default_rng([nvars, order, *map(len, shapes)])
        a, b = (_coeffs(rng, s + (len(space),)) for s in shapes)
        got = space.product(a, b)
        assert np.array_equal(_bits(got), _bits(product_sums(space, a, b)))

    @pytest.mark.parametrize("nvars,order", SPACES)
    def test_views_of_an_augmented_matrix(self, nvars, order):
        # the operands jet_gauss_solve passes: slices of one (points, n,
        # n + m, len) array, a column taken with a new axis, and a
        # reciprocal broadcast along the row
        space = JetSpace(tuple("abcde"[:nvars]), order)
        rng = np.random.default_rng([nvars, order])
        M = _coeffs(rng, (6, 3, 5, len(space)))
        inv = _coeffs(rng, (6, len(space)))[:, None, :]
        for col in range(3):
            row = M[:, col, col + 1:]
            assert np.array_equal(_bits(space.product(row, inv)),
                                  _bits(product_sums(space, row, inv)))
            for r in range(3):
                f = M[:, r, col, None, :]
                assert np.array_equal(
                    _bits(space.product(f, row)),
                    _bits(product_sums(space, f, row)))


def _scatter_product(space, a, b):
    """The gather-and-scatter kernel, which order-0 spaces skip."""
    return (a[..., space._ii] * b[..., space._jj]) @ space._scatter


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
       st.data())
def test_order0_product_is_the_scatter_matmul(nvars, shapes, data):
    # every float64, +-0, +-inf, NaN and subnormals included
    space = JetSpace(tuple("abcde"[:nvars]), 0)
    a, b = (data.draw(arrays(np.float64, s + (1,), elements=st.floats()))
            for s in shapes.input_shapes)
    with np.errstate(all="ignore"):   # inf * 0, overflow
        got = space.product(a, b)
        want = _scatter_product(space, a, b)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


class TestBatchAxes:
    """`jet[index]` and `Jet.moveaxis` act on the batch axes as numpy acts
    on an array of the batch shape, and never reach the coefficients."""

    BATCHES = [(), (3,), (3, 4), (2, 3, 4)]
    ORDERS = [0, 1, 2]
    INDICES = [
        (...,), (None,), (..., None), (None, ..., None), (0,), (-1,),
        (slice(1, None),), (slice(None, None, -1), ...),
        (np.array([2, 0, 2]),), (None, 1), (..., 1), (1, None, ...), (0, 2),
        (..., 0, 2), (1, ..., 2), (slice(None), np.array([1, 0])),
        (np.array([0, 1]), np.array([2, 2])),
        (..., np.array([[0], [1]]), np.array([0, 2])), (0, 1, 2),
        (None, slice(None, None, -1), ..., None),
        (..., np.array([1, 1]), None),
    ]

    def _jet(self, batch, order, seed=0):
        space = JetSpace(("x", "y"), order)
        rng = np.random.default_rng([len(batch), order, seed])
        return Jet(space, _coefficients(rng, batch + (len(space),)))

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("order", ORDERS)
    def test_indexing_is_numpy_on_the_batch_shape(self, batch, order):
        jet = self._jet(batch, order)
        tried = 0
        for index in self.INDICES:
            try:
                want_shape = np.empty(batch)[index].shape
            except IndexError:
                continue
            tried += 1
            tail = ((slice(None),) if any(i is Ellipsis for i in index)
                    else (Ellipsis, slice(None)))
            want = jet.coeffs[index + tail]
            for got in [jet[index]] + ([jet[index[0]]] if len(index) == 1
                                       else []):
                assert got.space is jet.space
                assert got.coeffs.shape == want_shape + (len(jet.space),)
                assert np.array_equal(_bits(got.coeffs), _bits(want))
        assert tried >= 3

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("order", ORDERS)
    def test_too_many_indices_raise(self, batch, order):
        jet = self._jet(batch, order)
        for index in [(0,) * (len(batch) + 1),
                      (...,) + (0,) * (len(batch) + 1),
                      (0,) * len(batch) + (..., 0)]:
            with pytest.raises(IndexError):
                jet[index]

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("order", ORDERS)
    def test_moveaxis_is_numpy_on_values_and_gradients(self, batch, order):
        jet, n = self._jet(batch, order), len(batch)
        for src in range(-n, n):
            for dst in range(-n, n):
                moved = jet.moveaxis(src, dst)
                assert moved.space is jet.space
                assert np.array_equal(_bits(moved.value),
                                      _bits(np.moveaxis(jet.value, src, dst)))
                if order:
                    assert np.array_equal(
                        _bits(moved.gradient()),
                        _bits(np.moveaxis(jet.gradient(), src % n, dst % n)))
        for src, dst in [(n, 0), (0, n), (-n - 1, 0), (0, -n - 1)]:
            with pytest.raises(IndexError):
                jet.moveaxis(src, dst)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("order", ORDERS)
    def test_outer_products_are_the_kernel_on_the_sliced_arrays(self, batch,
                                                               order):
        a = self._jet(batch + (3,), order, 1)
        b = self._jet(batch + (4,), order, 2)
        for i in (slice(None), np.array([2, 0]), slice(1, None, 2)):
            for j in (slice(None), np.array([3, 1, 1]), slice(None, 1)):
                with np.errstate(all="ignore"):   # inf * 0
                    got = a[..., i, None] * b[..., None, j]
                    want = a.space.product(a.coeffs[..., i, None, :],
                                           b.coeffs[..., None, j, :])
                assert np.array_equal(_bits(got.coeffs), _bits(want))
