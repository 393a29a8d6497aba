"""Projective structures on a surface with coordinates (x, y).

A projective structure is stored through a representative torsion-free
connection: six Christoffel symbols Gamma^i_jk(x, y), i, j, k in {0, 1}
with index 0 = x and 1 = y.  Two connections are projectively equivalent
when they differ by gamma_B delta^A_C + gamma_C delta^A_B for a 1-form
gamma; the invariant content is the cubic

    a(lam) = a0 + a1 lam + a2 lam^2 + a3 lam^3

appearing in the geodesic spray  d/dx + lam d/dy + a(lam) d/dlam  on the
slope bundle, with

    a0 = G^1_00, a1 = 2 G^1_01 - G^0_00,
    a2 = -2 G^0_01 + G^1_11, a3 = -G^0_11.

The module also provides the curvature of the representative connection
(reduced to a 2x2 bilinear form r), geodesic integration in two slope
charts (the one RK4 integrator, which also transports the line-bundle
sections of `minitwistor.ward_transport`, and steps lists of Python
floats), and residuals for geodesic congruences lam = beta(x, y).  A
tensor at sample points, such as the Christoffels or r, is one jet with
the point axes first and the index axes last.
"""
from __future__ import annotations

import math

import numpy as np

from .expr import ZERO, Expression, jets_at, values_at
from .jets import JetSpace, pointwise, stack

COORDS = ("x", "y")

# index pairs (B, C) with B <= C for the six stored symbols
_SYM_KEYS = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]


class ProjectiveSurface:
    """A surface with a representative connection, given by Christoffels."""

    def __init__(self, gamma):
        """`gamma` maps (A, B, C) -> Expression for B <= C; missing
        entries are zero."""
        self.gamma = {key: gamma.get(key, ZERO) for key in _SYM_KEYS}

    @classmethod
    def from_spray(cls, a0, a1, a2, a3):
        """The representative with G^1_00 = a0, G^0_00 = -a1, G^1_11 = a2,
        G^0_11 = -a3 and vanishing mixed symbols."""
        return cls({
            (1, 0, 0): a0,
            (0, 0, 0): -a1,
            (1, 1, 1): a2,
            (0, 1, 1): -a3,
        })

    def christoffel(self, A, B, C) -> Expression:
        if B > C:
            B, C = C, B
        return self.gamma[(A, B, C)]

    # -- spray -------------------------------------------------------------

    def spray_coeffs(self):
        """Coefficients (a0, a1, a2, a3) of the spray cubic, as Expressions."""
        g = self.christoffel
        a0 = g(1, 0, 0)
        a1 = 2 * g(1, 0, 1) - g(0, 0, 0)
        a2 = g(1, 1, 1) - 2 * g(0, 0, 1)
        a3 = -g(0, 1, 1)
        return a0, a1, a2, a3

    def spray_cubic(self) -> Expression:
        """a(lambda) as an Expression in (x, y, lambda)."""
        lam = Expression.var("lambda")
        a0, a1, a2, a3 = self.spray_coeffs()
        return a0 + a1 * lam + a2 * lam**2 + a3 * lam**3

    # -- curvature -----------------------------------------------------------

    # `point` below maps x and y to numbers, or to equal-shaped arrays
    # whose axes run over sample points (a sample set).  Each tensor is one
    # jet (or array), those point axes first and its index axes last.

    def christoffel_jets(self, point, order):
        """Jets of the Christoffels at `point`, index axes (A, B, C) last."""
        return jets_at([[[self.christoffel(A, B, C) for C in range(2)]
                         for B in range(2)] for A in range(2)],
                       JetSpace(COORDS, order), point)

    def curvature_endomorphism(self, g):
        """The dx^dy component of the curvature of the representative
        connection, from its Christoffel jets `g` (`christoffel_jets`) of
        some order k >= 1, as jets of order k-1 with index axes (A, B) last:
        R^A_B = d_x G^A_1B - d_y G^A_0B + G^A_0E G^E_1B - G^A_1E G^E_0B,
        the products truncated and added (val + p) - q in E order."""
        order = g.space.order
        # p, q at [..., A, E, B]: G^A_kE G^E_lB for (k, l) = (0, 1), (1, 0)
        p, q = ((g[..., :, k, :, None] * g[..., None, :, 1 - k, :])
                .truncate(order - 1) for k in (0, 1))
        val = g.derivative("x")[..., :, 1, :] - g.derivative("y")[..., :, 0, :]
        for E in range(2):
            val = val + p[..., :, E, :] - q[..., :, E, :]
        return val

    def ricci(self, g):
        """The 2x2 bilinear form r determined by the curvature through
        r(X,Z)Y - r(Y,Z)X + (r(X,Y) - r(Y,X))Z, from the Christoffel jets
        `g` of some order k >= 1, as jets of order k-1 with index axes
        (A, B) last.

        The solve of that 4x4 linear relation is closed-form:
            r_00 = R^1_0,  r_11 = -R^0_1,
            r_01 = (2 R^1_1 - R^0_0)/3,  r_10 = (R^1_1 - 2 R^0_0)/3.
        """
        R, third = self.curvature_endomorphism(g), 1.0 / 3.0
        return stack([
            [R[..., 1, 0], (2.0 * R[..., 1, 1] - R[..., 0, 0]) * third],
            [(R[..., 1, 1] - 2.0 * R[..., 0, 0]) * third, -R[..., 0, 1]]])

    def ricci_values(self, g):
        """The values r[..., A, B], point axes first, from the Christoffel
        jets `g` (of order >= 1) at the points."""
        return np.ascontiguousarray(self.ricci(g).value)

    # -- geodesics ------------------------------------------------------------

    def integrate_geodesic(self, start, length, step, rho):
        """RK4 integral curve of the spray from (x, y, lam), which carries
        the line-bundle section s of the 1-form `rho` = (rho_0, rho_1),
        transported by s' = -rho(gamma') s from s = 1 in the same RK4 step.

        Chart 1 (|lam| <= 1) advances x; chart 2 uses mu = 1/lam and
        advances y.  Returns the path as an array of (x, y, lam, s) states,
        whose first three columns do not depend on rho.  The steps have
        size `step` and add up to `length`: if `length` is not a whole
        number of steps (to a relative 1e-9), one last shorter step ends
        the path there.  `length` is the accumulated chart parameter, so a
        path that crosses |lam| = 1 switches charts after a step-dependent
        stretch: halving the step then changes the end point at O(h), not
        O(h^4).

        The spray coefficients and rho are compiled once per path
        (`expr.values_at`) and evaluated on Python floats at every RK4 stage.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        coeffs = values_at(self.spray_coeffs() + tuple(rho), COORDS)

        def rhs1(state):
            lam = state[2]
            a = coeffs(state[:2])
            return [1.0, lam, a[0] + a[1]*lam + a[2]*_power(lam, 2)
                    + a[3]*_power(lam, 3),
                    -(a[4] + a[5]*lam) * state[3]]

        def rhs2(state):
            mu = state[2]
            a = coeffs(state[:2])
            return [mu, 1.0, -(a[0]*_power(mu, 3) + a[1]*_power(mu, 2)
                               + a[2]*mu + a[3]),
                    -(a[4]*mu + a[5]) * state[3]]

        state = [float(v) for v in start] + [1.0]
        path = [state]
        for h in _steps(length, step):
            if abs(state[2]) <= 1.0:
                state = _rk4_step(rhs1, state, h)
            else:
                state = state.copy()
                state[2] = 1.0 / state[2]
                state = _rk4_step(rhs2, state, h)
                state[2] = np.inf if state[2] == 0.0 else 1.0 / state[2]
            path.append(state)
        return np.array(path)

    # -- congruences ------------------------------------------------------------

    def congruence_residual(self, beta, points):
        """beta_x + beta beta_y - a(beta) at each point of the sample set
        `points` (only x and y are read) for a slope section beta(x, y),
        an Expression."""
        bv, a, bx, by = self._slope_jets(beta, points)
        return bx + bv * by - (a[0] + a[1]*bv + a[2]*_pow(bv, 2)
                               + a[3]*_pow(bv, 3))

    def congruence_multiplier(self, beta, point, lam):
        """b(lam) = beta_y - (a(lam) - a(beta))/(lam - beta), the divided
        difference expanded exactly as a polynomial (no cancellation at
        lam = beta):  b = beta_y - a1 - a2(lam+beta) - a3(lam^2+lam beta+beta^2).
        `lam` may be an array of slopes, which gives b at each of them."""
        bv, a, _, by = self._slope_jets(beta, point)
        return by - a[1] - a[2] * (lam + bv) - a[3] * (lam**2 + lam*bv + bv**2)

    def _slope_jets(self, beta, point):
        """The value of the slope section `beta` at `point`, the list of
        spray coefficients a0..a3 there and the two first derivatives of
        `beta`, each an array over the point axes."""
        jets = jets_at([beta, *self.spray_coeffs()],
                       JetSpace(COORDS, 1), point)
        bv, *a = np.moveaxis(jets.value, -1, 0)
        bx, by = np.moveaxis(jets.gradient()[..., 0, :], -1, 0)
        return bv, a, bx, by


def _power(v, n):
    """v**n for a float, by the C library's pow as for a numpy scalar, and
    like it inf where that overflows (a Python float raises there)."""
    try:
        return v ** n
    except OverflowError:
        return math.copysign(math.inf, v) if n & 1 else math.inf


def _pow(values, n):
    """values**n at every point, with the C library's pow that a single
    point gets (numpy's array power differs in the last bit on a few
    percent of arguments)."""
    return pointwise(lambda v: _power(v, n), values)


def _steps(length, step):
    """The step sizes of a path of the given length: whole steps of size
    `step`, then the remainder as one shorter step, unless the length is
    a whole number of steps to a relative 1e-9."""
    n = max(length / step, 0.0)
    if abs(n - round(n)) <= 1e-9 * n:
        return [step] * round(n)
    return [step] * int(n) + [length - int(n) * step]


def _rk4_step(rhs, state, h):
    """One RK4 step of a list of floats, grouped as on numpy vectors."""
    k1 = rhs(state)
    k2 = rhs([s + 0.5 * h * k for s, k in zip(state, k1)])
    k3 = rhs([s + 0.5 * h * k for s, k in zip(state, k2)])
    k4 = rhs([s + h * k for s, k in zip(state, k3)])
    return [s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
