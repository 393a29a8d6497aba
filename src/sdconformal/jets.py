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


def unstack(jet, depth):
    """The nested list of jets, `depth` levels deep, that `stack` makes
    `jet` from: its last `depth` batch axes are the nesting.  The entries
    are views of `jet`."""
    if depth == 0:
        return jet
    rest = (slice(None),) * depth
    return [unstack(Jet(jet.space, jet.coeffs[(..., i) + rest]), depth - 1)
            for i in range(jet.coeffs.shape[-1 - depth])]


def max_abs(*values):
    """The largest |v| over all entries of the given arrays (0.0 for
    none): a residual's worst case over sample points.  A NaN anywhere
    makes it NaN, so a non-finite residual is never reported as small."""
    flat = [np.ravel(v) for v in values]
    return float(np.max(np.abs(np.concatenate(flat + [np.zeros(1)]))))


def _libm(fn, values):
    """The math-module function `fn` at every point: the C library's
    results, bit for bit the ones a single point gets."""
    values = np.asarray(values)
    try:
        out = [fn(v) for v in values.ravel().tolist()]
    except ValueError:   # math's domain error, e.g. sin(inf)
        raise JetDomainError(f"{fn.__name__} outside its domain at a "
                             "sample point") from None
    return np.array(out).reshape(values.shape)


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
        n = int(n)
        if n < 0:
            return self.reciprocal() ** (-n)
        result = self.space.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        try:
            e = _libm(math.exp, self.value)
        except OverflowError:
            raise JetDomainError("exp overflows at a sample point") from None
        return self.compose([e] * (self.space.order + 1))

    def log(self) -> "Jet":
        c = self.value
        if np.any(c <= 0.0):
            raise JetDomainError("log of a jet with nonpositive constant term")
        # d^k log / dt^k = d^(k-1) (1/t) / dt^(k-1)
        return self.compose([_libm(math.log, c)]
                            + _reciprocal_derivs(c, self.space.order))

    def sqrt(self) -> "Jet":
        c = self.value
        if np.any(c <= 0.0):
            raise JetDomainError("sqrt of a jet with nonpositive constant term")
        root = np.sqrt(c)   # correctly rounded, like math.sqrt
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
        # the derivatives of sin and cos both run through sin, cos, -sin, -cos
        s, c = _libm(math.sin, self.value), _libm(math.cos, self.value)
        cycle, n = [s, c, -s, -c], self.space.order + 1
        return self.compose([cycle[(k + shift) % 4] for k in range(n)])

    def __repr__(self):
        return f"Jet({self.space.vars}, order={self.space.order}, value={self.value})"
