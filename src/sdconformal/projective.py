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
(reduced to a 2x2 bilinear form r), the associated third-order invariant
(the covariant curl of r), the homogeneity-weighted lift of the spray to
the tangent bundle, geodesic integration in two slope charts, and
residuals for geodesic congruences lam = beta(x, y).
"""
from __future__ import annotations

import numpy as np

from .expr import Expression, as_expression, evaluate
from .jets import JetSpace, max_abs, stack

COORDS = ("x", "y")

# index pairs (B, C) with B <= C for the six stored symbols
_SYM_KEYS = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]


def xy_arrays(points):
    """A sequence of (x, y) points as the pair (x, y) of coordinate arrays
    whose axis runs over the points."""
    return tuple(np.asarray(points, dtype=float).T)


class ProjectiveSurface:
    """A surface with a representative connection, given by Christoffels."""

    def __init__(self, gamma):
        """`gamma` maps (A, B, C) -> Expression/str/number for B <= C;
        missing entries default to zero."""
        self.gamma = {}
        for key in _SYM_KEYS:
            self.gamma[key] = as_expression(gamma.get(key, 0.0), COORDS)

    @classmethod
    def flat(cls):
        return cls({})

    @classmethod
    def from_spray(cls, a0, a1, a2, a3):
        """The representative with G^1_00 = a0, G^0_00 = -a1, G^1_11 = a2,
        G^0_11 = -a3 and vanishing mixed symbols."""
        a0, a1, a2, a3 = (as_expression(a, COORDS) for a in (a0, a1, a2, a3))
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

    def spray_cubic(self, lam_name="lambda") -> Expression:
        """a(lambda) as an Expression in (x, y, lambda)."""
        lam = Expression.var(lam_name)
        a0, a1, a2, a3 = self.spray_coeffs()
        return a0 + a1 * lam + a2 * lam**2 + a3 * lam**3

    def spray_value(self, x, y, lam):
        a = [c.eval_jet(JetSpace(COORDS, 0), {"x": x, "y": y}).value
             for c in self.spray_coeffs()]
        return a[0] + a[1] * lam + a[2] * lam**2 + a[3] * lam**3

    # -- projective change ---------------------------------------------------

    def projective_change(self, gamma0, gamma1) -> "ProjectiveSurface":
        """Shift the representative by the 1-form (gamma0, gamma1):
        G^A_BC -> G^A_BC + gamma_B delta^A_C + gamma_C delta^A_B."""
        gam = (as_expression(gamma0, COORDS), as_expression(gamma1, COORDS))
        shifted = {}
        for (A, B, C), expr in self.gamma.items():
            delta = Expression.const(0.0)
            if A == C:
                delta = delta + gam[B]
            if A == B:
                delta = delta + gam[C]
            shifted[(A, B, C)] = expr + delta
        out = ProjectiveSurface({})
        out.gamma = shifted
        return out

    # -- curvature -----------------------------------------------------------

    # `point` below is a pair (x, y) of numbers, or of equal-shaped arrays
    # whose axes run over sample points; the jets and arrays returned then
    # carry those point axes in front (a jet that is constant over the
    # points may lack them).

    def christoffel_jets(self, point, order):
        """Nested list g[A][B][C] of jets of the Christoffels at `point`."""
        space = JetSpace(COORDS, order)
        env = space.seed({"x": point[0], "y": point[1]})
        return [[[evaluate(self.christoffel(A, B, C), env, space=space)
                  for C in range(2)] for B in range(2)] for A in range(2)]

    def curvature_endomorphism(self, point, order=2):
        """The dx^dy component of the curvature of the representative
        connection, as a 2x2 array R[A][B] of jets of order `order`-1:
        R^A_B = d_x G^A_1B - d_y G^A_0B + G^A_0E G^E_1B - G^A_1E G^E_0B."""
        g = self.christoffel_jets(point, order)
        R = [[None, None], [None, None]]
        for A in range(2):
            for B in range(2):
                val = g[A][1][B].derivative("x") - g[A][0][B].derivative("y")
                for E in range(2):
                    val = val + (g[A][0][E] * g[E][1][B]).truncate(order - 1) \
                              - (g[A][1][E] * g[E][0][B]).truncate(order - 1)
                R[A][B] = val
        return R

    def ricci(self, point, order=2):
        """The 2x2 bilinear form r determined by the curvature through
        r(X,Z)Y - r(Y,Z)X + (r(X,Y) - r(Y,X))Z, as jets of order `order`-1.

        The solve of that 4x4 linear relation is closed-form:
            r_00 = R^1_0,  r_11 = -R^0_1,
            r_01 = (2 R^1_1 - R^0_0)/3,  r_10 = (R^1_1 - 2 R^0_0)/3.
        """
        R = self.curvature_endomorphism(point, order)
        r = [[None, None], [None, None]]
        r[0][0] = R[1][0]
        r[1][1] = -R[0][1]
        r[0][1] = (2 * R[1][1] - R[0][0]) * (1.0 / 3.0)
        r[1][0] = (R[1][1] - 2 * R[0][0]) * (1.0 / 3.0)
        return r

    def ricci_values(self, point):
        """The values r[..., A, B] at `point`, point axes first."""
        batch = np.broadcast_shapes(np.shape(point[0]), np.shape(point[1]))
        r = stack(self.ricci(point, order=2)).value
        return np.array(np.broadcast_to(r, batch + (2, 2)))

    def reconstruct_curvature(self, r_values):
        """B(r)^A_B from a 2x2 array of r values (inverse of the solve in
        `ricci`); used as a self-consistency oracle."""
        r = np.asarray(r_values, dtype=float)
        R = np.zeros((2, 2))
        for A in range(2):
            for B in range(2):
                R[A][B] = (r[0][B] * (A == 1) - r[1][B] * (A == 0)
                           + (r[0][1] - r[1][0]) * (A == B))
        return R

    def cotton(self, point):
        """The two components (C_0, C_1) of the covariant curl of r:
        C_C = D_0 r_1C - D_1 r_0C with the connection acting on both slots.
        Projectively invariant; needs third derivatives of the metric data,
        i.e. order-3 jets of the Christoffels."""
        g = self.christoffel_jets(point, 1)
        r = self.ricci(point, order=3)  # order-2 jets

        def Dr(B, A, C):
            out = r[A][C].derivative(COORDS[B]).value
            for E in range(2):
                out -= g[E][B][A].value * r[E][C].value
                out -= g[E][B][C].value * r[A][E].value
            return out

        return np.array([Dr(0, 1, 0) - Dr(1, 0, 0),
                         Dr(0, 1, 1) - Dr(1, 0, 1)])

    # -- spray lift and geodesics ---------------------------------------------

    def lifted_spray_velocity(self, state):
        """Velocity of (x, y, pi0, pi1) under the homogeneity-0 lift of the
        spray to TN: xdot^A = pi^A, pidot^A = pi^B pi^C Ghat^A_BC with
        Ghat^A_BC = G^A_BC - (2/3) delta^A_C G^E_BE."""
        x, y, p0, p1 = state
        if p0 == 0.0 and p1 == 0.0:
            raise ValueError("zero fiber vector")
        g = self.christoffel_jets((x, y), 0)
        gv = [[[g[A][B][C].value for C in range(2)] for B in range(2)]
              for A in range(2)]
        trace = [gv[0][B][0] + gv[1][B][1] for B in range(2)]
        pi = (p0, p1)
        pidot = []
        for A in range(2):
            acc = 0.0
            for B in range(2):
                for C in range(2):
                    ghat = gv[A][B][C] - (2.0 / 3.0) * (A == C) * trace[B]
                    acc += pi[B] * pi[C] * ghat
            pidot.append(acc)
        return np.array([p0, p1, pidot[0], pidot[1]])

    def integrate_geodesic(self, start, length, step):
        """RK4 integral curve of the spray from (x, y, lam).

        Chart 1 (|lam| <= 1) advances x; chart 2 uses mu = 1/lam and
        advances y.  Returns the path as an array of (x, y, lam) states;
        `length` is the accumulated chart parameter.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        a_exprs = self.spray_coeffs()
        space = JetSpace(COORDS, 0)

        def coeffs(x, y):
            env = space.seed({"x": x, "y": y})
            return [evaluate(c, env, space=space).value for c in a_exprs]

        def rhs1(state):
            x, y, lam = state
            a = coeffs(x, y)
            return np.array([1.0, lam, a[0] + a[1]*lam + a[2]*lam**2 + a[3]*lam**3])

        def rhs2(state):
            x, y, mu = state
            a = coeffs(x, y)
            return np.array([mu, 1.0, -(a[0]*mu**3 + a[1]*mu**2 + a[2]*mu + a[3])])

        x, y, lam = start
        path = [np.array([x, y, lam])]
        n = int(round(length / step))
        for _ in range(n):
            if abs(lam) <= 1.0:
                state = np.array([x, y, lam])
                state = _rk4_step(rhs1, state, step)
                x, y, lam = state
            else:
                state = np.array([x, y, 1.0 / lam])
                state = _rk4_step(rhs2, state, step)
                x, y, mu = state
                if mu == 0.0:
                    lam = np.inf
                else:
                    lam = 1.0 / mu
            path.append(np.array([x, y, lam]))
        return np.array(path)

    # -- congruences ------------------------------------------------------------

    def congruence_residual(self, beta, points):
        """Max over `points` (a sequence of (x, y)) of
        |beta_x + beta beta_y - a(beta)| for a slope section beta(x, y).
        `beta` may be an Expression or source text."""
        beta = as_expression(beta, COORDS)
        x, y = xy_arrays(points)
        space = JetSpace(COORDS, 1)
        env = space.seed({"x": x, "y": y})
        b = evaluate(beta, env, space=space)
        a = [evaluate(c, env, space=space).value for c in self.spray_coeffs()]
        bx, by = np.moveaxis(b.gradient(), -1, 0)
        bv = b.value
        res = bx + bv * by - (a[0] + a[1]*bv + a[2]*_pow(bv, 2)
                              + a[3]*_pow(bv, 3))
        return max_abs(res)

    def congruence_multiplier(self, beta, point, lam):
        """b(lam) = beta_y - (a(lam) - a(beta))/(lam - beta), the divided
        difference expanded exactly as a polynomial (no cancellation at
        lam = beta):  b = beta_y - a1 - a2(lam+beta) - a3(lam^2+lam beta+beta^2)."""
        beta = as_expression(beta, COORDS)
        space = JetSpace(COORDS, 1)
        env = space.seed({"x": point[0], "y": point[1]})
        b = evaluate(beta, env, space=space)
        a = [evaluate(c, env, space=space).value for c in self.spray_coeffs()]
        bv = b.value
        by = b.gradient()[1]
        return by - a[1] - a[2] * (lam + bv) - a[3] * (lam**2 + lam*bv + bv**2)


def _pow(values, n):
    """values**n at every point, with the C library's pow that a single
    point's numpy scalar gets (numpy's array power differs in the last
    bit on a few percent of arguments)."""
    values = np.asarray(values)
    return np.array([v ** n for v in values.ravel()]).reshape(values.shape)


def _rk4_step(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
