"""Truncated multivariate Taylor (jet) arithmetic over batches of points.

A jet stores the Taylor coefficients of an analytic function at base
points, up to a fixed total degree, in up to five variables.  Coefficient
convention: ``coeffs[..., mu] = d^mu f / mu!``, so multiplication is a
plain truncated convolution.  ``coeffs`` has shape ``(*batch,
len(space))``: the leading axes index base points (a single point is
batch shape ``()``), and every operation runs the same coefficient
recurrence at all of them at once.  Batch shapes broadcast like numpy
arrays, so a constant jet combines with a batched one.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

MAX_VARS = 5


class JetDomainError(ArithmeticError):
    """A jet operation left the analytic domain (division by a jet with
    zero constant term, log/sqrt of a nonpositive constant term, ...)."""


def _monomials(nvars: int, degree: int):
    """Multi-indices of total degree `degree`, lexicographic."""
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _monomials(nvars - 1, degree - head):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int):
    mindex = [mu for deg in range(order + 1) for mu in _monomials(nvars, deg)]
    index = {mu: i for i, mu in enumerate(mindex)}
    ii, jj, kk = [], [], []
    for i, mi in enumerate(mindex):
        for j, mj in enumerate(mindex):
            s = tuple(a + b for a, b in zip(mi, mj))
            k = index.get(s)
            if k is not None:
                ii.append(i)
                jj.append(j)
                kk.append(k)
    # The 0/1 scatter matrix of the product kernel, stored as a strided
    # view: matmul then takes numpy's plain loop instead of BLAS (gemv and
    # gemm group the terms differently, so a single point and a batch
    # would differ in the last bit).  That loop adds each output's terms
    # in pair order, starting from 0.0, because the gathered pair array
    # a[..., ii] * b[..., jj] comes out F-ordered; a C-contiguous copy of
    # it changes the order, and the last bit, on some spaces and batches.
    wide = np.zeros((len(ii), 2 * len(mindex)))
    wide[np.arange(len(ii)), 2 * np.asarray(kk)] = 1.0
    scatter = wide[:, ::2]
    # derivative tables: d/dvar maps slot i of the order-1 lower space
    # (a prefix of this one) to slot src[i] of this space, times mult[i]
    lower = sum(1 for mu in mindex if sum(mu) < order)
    deriv = []
    for pos in range(nvars):
        ups = [mu[:pos] + (mu[pos] + 1,) + mu[pos + 1:] for mu in mindex[:lower]]
        deriv.append((np.asarray([index[up] for up in ups], dtype=np.intp),
                      np.asarray([mu[pos] + 1.0 for mu in mindex[:lower]])))
    return (
        tuple(mindex),
        index,
        np.asarray(ii, dtype=np.intp),
        np.asarray(jj, dtype=np.intp),
        scatter,
        tuple(deriv),
    )


class JetSpace:
    """Shared structure (variables, truncation order, index tables) for jets."""

    __slots__ = ("vars", "order", "mindex", "index", "_ii", "_jj", "_scatter",
                 "_deriv")

    _cache: dict[tuple, "JetSpace"] = {}

    def __new__(cls, variables, order):
        variables = tuple(variables)
        key = (variables, int(order))
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        if not 1 <= len(variables) <= MAX_VARS:
            raise ValueError(f"jet spaces support 1..{MAX_VARS} variables")
        if order < 0:
            raise ValueError("order must be >= 0")
        self = object.__new__(cls)
        self.vars = variables
        self.order = int(order)
        (self.mindex, self.index, self._ii, self._jj, self._scatter,
         self._deriv) = _tables(len(variables), int(order))
        cls._cache[key] = self
        return self

    def __len__(self):
        return len(self.mindex)

    def __repr__(self):
        return f"JetSpace(vars={self.vars}, order={self.order})"

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of the product of two jets of this space, given by
        their coefficient arrays (batch shapes broadcast)."""
        if not self.order:   # one pair; + 0.0 is the matmul's zero start
            return a * b + 0.0
        return (a[..., self._ii] * b[..., self._jj]) @ self._scatter

    def constant(self, value) -> "Jet":
        """The constant jet `value` (a number, or an array of per-point values)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (len(self.mindex),))
        c[..., 0] = value
        return Jet(self, c)

    def variable(self, name: str, value) -> "Jet":
        """The jet of the coordinate function `name` at `value` (a number,
        or an array of per-point values)."""
        pos = self.vars.index(name)
        jet = self.constant(value)
        if self.order >= 1:
            jet.coeffs[..., 1 + pos] = 1.0   # first-order slots are 1..n
        return jet

    def seed(self, point) -> dict[str, "Jet"]:
        """Seed every space variable at the given base point, a mapping of
        variable names to numbers or to equal-shaped arrays of values."""
        return {v: self.variable(v, point[v]) for v in self.vars}


def stack(jets, batch=()) -> "Jet":
    """One jet from a nested list of jets of one space: the nesting
    becomes trailing batch axes, after the batch axes of the entries
    broadcast together and with `batch`.  A jet is returned as it is."""
    if isinstance(jets, Jet):
        return jets
    nest, flat = [len(jets)], jets
    while not isinstance(flat[0], Jet):
        nest.append(len(flat[0]))
        flat = [j for row in flat for j in row]
    space = flat[0].space
    if any(j.space is not space for j in flat):
        raise ValueError("jets from different spaces")
    shape = np.broadcast_shapes(batch + (len(space),),
                                *(j.coeffs.shape for j in flat))
    coeffs = np.empty(shape[:-1] + (len(flat),) + shape[-1:])
    for k, j in enumerate(flat):
        coeffs[..., k, :] = j.coeffs
    return Jet(space, coeffs.reshape(shape[:-1] + tuple(nest) + shape[-1:]))


def max_abs(*values):
    """The largest |v| over all entries of the given arrays (0.0 for
    none): a residual's worst case over sample points.  A NaN anywhere
    makes it NaN, so a non-finite residual is never reported as small."""
    flat = [np.ravel(v) for v in values]
    return float(np.max(np.abs(np.concatenate(flat + [np.zeros(1)]))))


def pointwise(fn, values):
    """`fn` of one float at every point (a float twin of a math function,
    see `FLOAT_TWINS`): the C library's results, bit for bit a point's."""
    values = np.asarray(values)
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(
        values.shape)


def _reciprocal_derivs(c, count):
    """The derivatives 0..count-1 of 1/t at t = c: k! / c (-1/c)^k."""
    derivs, s, fact = [], 1.0 / c, 1.0
    for k in range(count):
        derivs.append(fact * s)
        s, fact = s * (-1.0 / c), fact * (k + 1)
    return derivs


class Jet:
    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- basic accessors -------------------------------------------------
    @property
    def value(self):
        """The function values at the base points (batch-shaped; a numpy
        scalar for a single point)."""
        return self.coeffs[..., 0][()]

    def gradient(self) -> np.ndarray:
        """First partial derivatives, in variable order, along a new last
        axis.  In the lex order of the slots they are slots 1..n."""
        if self.space.order == 0:
            raise ValueError("an order-0 jet has no gradient")
        return self.coeffs[..., 1:len(self.space.vars) + 1]

    def derivative(self, var: str) -> "Jet":
        """The jet of df/d(var), truncated one order lower."""
        sp = self.space
        if sp.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        src, mult = sp._deriv[sp.vars.index(var)]
        return Jet(JetSpace(sp.vars, sp.order - 1), self.coeffs[..., src] * mult)

    def truncate(self, order: int) -> "Jet":
        if not 0 <= order <= self.space.order:
            raise ValueError(f"cannot truncate an order-{self.space.order} "
                             f"jet to order {order}")
        lower = JetSpace(self.space.vars, order)
        # the slots of a lower order are a prefix of the slots
        return Jet(lower, self.coeffs[..., :len(lower)])

    def __getitem__(self, index) -> "Jet":
        """The jet at `index` of the batch axes, indexed as numpy indexes an
        array of the batch shape; too many indices raise IndexError."""
        index = index if isinstance(index, tuple) else (index,)
        tail = () if any(i is Ellipsis for i in index) else (Ellipsis,)
        return Jet(self.space, self.coeffs[index + tail + (slice(None),)])

    def moveaxis(self, src: int, dst: int) -> "Jet":
        """Batch axis `src` moved to position `dst`; negative axes count
        from the last batch axis."""
        n = self.coeffs.ndim - 1
        if not (-n <= src < n and -n <= dst < n):
            raise IndexError(f"axis out of range for {n} batch axes")
        return Jet(self.space, np.moveaxis(self.coeffs, src % n, dst % n))

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self.space.constant(float(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.space, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.space, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.space, other.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.space, self.space.product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponents must be integers")
        return _squarings(self, int(n), operator.mul, self.space.constant(1.0),
                          Jet.reciprocal)

    # -- analytic functions ----------------------------------------------
    def compose(self, derivs) -> "Jet":
        """Sum_k derivs[k]/k! * (self - value)^k; derivs[k] = f^(k)(value),
        a number or an array of per-point values."""
        sp = self.space
        bar = self.coeffs.copy()
        bar[..., 0] = 0.0
        out = sp.constant(derivs[0]).coeffs
        power = sp.constant(1.0).coeffs
        fact = 1.0
        for k in range(1, min(len(derivs), sp.order + 1)):
            power = sp.product(power, bar)
            fact *= k
            out = out + power * (np.asarray(derivs[k]) / fact)[..., None]
        return Jet(sp, out)

    def reciprocal(self) -> "Jet":
        c = self.value
        if np.any(c == 0.0):
            raise JetDomainError("division by a jet with zero constant term")
        return self.compose(_reciprocal_derivs(c, self.space.order + 1))

    def exp(self) -> "Jet":
        e = pointwise(_f_exp, self.value)
        return self.compose([e] * (self.space.order + 1))

    def log(self) -> "Jet":
        c = self.value
        # d^k log / dt^k = d^(k-1) (1/t) / dt^(k-1)
        return self.compose([pointwise(_f_log, c)]
                            + _reciprocal_derivs(c, self.space.order))

    def sqrt(self) -> "Jet":
        c = self.value
        root = pointwise(_f_sqrt, c)
        derivs = [root]
        coef = 0.5
        s = root / c
        for k in range(1, self.space.order + 1):
            derivs.append(coef * s)
            coef *= 0.5 - k
            s = s / c
        return self.compose(derivs)

    def sin(self) -> "Jet":
        return self._sine_cycle(0)

    def cos(self) -> "Jet":
        return self._sine_cycle(1)

    def _sine_cycle(self, shift):
        # the derivatives of sin and cos both run through sin, cos, -sin,
        # -cos; the one called goes first, so that a domain error names it
        v = self.value
        called = pointwise((_f_sin, _f_cos)[shift], v)
        s, c = ((called, pointwise(_f_cos, v)) if shift == 0
                else (pointwise(_f_sin, v), called))
        cycle, n = [s, c, -s, -c], self.space.order + 1
        return self.compose([cycle[(k + shift) % 4] for k in range(n)])

    def __repr__(self):
        return f"Jet({self.space.vars}, order={self.space.order}, value={self.value})"


def _squarings(base, n, mul, one, reciprocal):
    """base**n by repeated squaring from `one` with the product `mul`, of
    the reciprocal of base if n < 0."""
    if n < 0:
        base, n = reciprocal(base), -n
    while n:
        if n & 1:
            one = mul(one, base)
        base = mul(base, base)
        n >>= 1
    return one


# -- one point in Python floats ----------------------------------------------
# Each function a plan's tape applies (`expr.compile`) has a twin on Python
# floats that gives the order-0 jet operation's value to the last bit, and
# its JetDomainError: a product is a*b + 0.0 (the product kernel's zero
# start turns -0.0 into 0.0), a quotient a times 1/b, a power
# `_squarings` from 1.0.  The jets' exp, log, sqrt, sin and cos values
# come from the twins, point by point.

def _f_mul(a, b):
    return a * b + 0.0


def _f_reciprocal(b):
    if b == 0.0:
        raise JetDomainError("division by a jet with zero constant term")
    return 1.0 / b


def _twin(fn, positive=False):
    """The math function `fn` of one float, raising where the argument is
    nonpositive (if `positive`), out of its domain or where fn overflows."""
    def twin(v):
        if positive and v <= 0.0:
            raise JetDomainError(f"{fn.__name__} of a jet with nonpositive "
                                 "constant term")
        try:
            return fn(v)
        except (ValueError, OverflowError) as exc:   # sin(inf), exp(1000)
            what = ("overflows" if type(exc) is OverflowError
                    else "outside its domain")
            raise JetDomainError(f"{fn.__name__} {what} at a sample point") \
                from None
    return twin


_f_exp, _f_sin, _f_cos = _twin(math.exp), _twin(math.sin), _twin(math.cos)
_f_log, _f_sqrt = _twin(math.log, True), _twin(math.sqrt, True)
CALLS = {fn: operator.methodcaller(fn)   # a jet's analytic functions
         for fn in ("sin", "cos", "exp", "log", "sqrt")}
FLOAT_TWINS = {
    operator.add: operator.add, operator.sub: operator.sub,
    operator.neg: operator.neg, operator.mul: _f_mul,
    operator.truediv: lambda a, b: a * _f_reciprocal(b) + 0.0,
    operator.pow: lambda a, n: _squarings(a, n, _f_mul, 1.0, _f_reciprocal),
    CALLS["exp"]: _f_exp, CALLS["log"]: _f_log, CALLS["sqrt"]: _f_sqrt,
    CALLS["sin"]: _f_sin, CALLS["cos"]: _f_cos,
}
