"""Divisor calculus on the surface side of the geodesic correspondence.

A geodesic congruence on the surface, together with a connection on an
auxiliary line bundle, plays the role of a degree-one divisor in the
space of geodesics.  This module certifies the first-order equations
such data satisfy, solves for the canonical line-bundle connection,
assembles the conformal metric attached to a pair of congruences (the
degree-two case) with its Weyl connection, checks the symmetric/skew
curvature dichotomy against the line-bundle curvatures, transports
line-bundle sections along geodesics, and tests vector fields for
preserving the geodesic foliation.

Everything is chart-local: line bundles are trivialized over the working
coordinate patch, so their connections are plain 1-forms and weighted
objects are represented by bare components.  The weight-w action of the
trace part of a connection is (w/3) * Gamma^E_{BE}, the forced extension
of the algebraic bracket from the tangent bundle (where the trace is 3).
"""

import numpy as np

from .expr import Expression, as_expression, evaluate
from .jets import JetSpace, max_abs
from .projective import COORDS, xy_arrays
from .conformal import jet_gauss_solve


class WeightedCongruence:
    """A weighted vector field phi = (phi^0, phi^1) tangent to a geodesic
    congruence, with the 1-form rho = (rho_0, rho_1) of the auxiliary
    line-bundle connection it is coupled to.  phi carries weight -1, so
    the certified equation is sym(D phi + rho phi) = 0 after lowering an
    index with the area form."""

    def __init__(self, phi, rho=("0", "0")):
        self.phi = tuple(as_expression(c, COORDS) for c in phi)
        self.rho = tuple(as_expression(c, COORDS) for c in rho)

    @classmethod
    def from_slope(cls, beta):
        """The congruence of slope-beta geodesics, phi = (1, beta), with
        the canonical connection rho = (d beta/dy, 0) of the flat chart."""
        beta = as_expression(beta, COORDS)
        return cls((Expression.const(1.0), beta),
                   (beta.diff("y"), Expression.const(0.0)))


def _derivative_matrix_jets(P, phi, rho, point, order):
    """The lowered covariant derivative M_{BC} = eps_{AC} D_B phi^A of a
    weight -1 congruence, as order-`order` jets, together with the
    lowered field (phi_0, phi_1) = (-phi^1, phi^0).  Lowering uses the
    chart area form eps_{01} = 1, which commutes with the weighted
    derivative."""
    space = JetSpace(COORDS, order + 1)
    env = space.seed({"x": point[0], "y": point[1]})
    ph = [evaluate(c, env, space=space) for c in phi]
    rh = [evaluate(c, env, space=space).truncate(order) for c in rho]
    g = P.christoffel_jets(point, order)
    tr = [g[0][B][0] + g[1][B][1] for B in range(2)]
    low = [-ph[1].truncate(order), ph[0].truncate(order)]
    M = [[None, None], [None, None]]
    for B in range(2):
        d = [ph[A].derivative(COORDS[B]) for A in range(2)]
        cov = []
        for A in range(2):
            val = d[A]
            for E in range(2):
                val = val + g[A][B][E] * ph[E].truncate(order)
            val = val - tr[B] * ph[A].truncate(order) * (1.0 / 3.0)
            val = val + rh[B] * ph[A].truncate(order)
            cov.append(val.truncate(order))
        for C in range(2):
            M[B][C] = cov[0] * (C == 1) - cov[1] * (C == 0)
    return M, low


def abelian_pair_residual(P, phi, rho, points):
    """Max norm over sample points of the symmetrized coupled derivative
    of the congruence field; zero iff (phi, rho) is a genuine weighted
    congruence of the projective structure."""
    phi = tuple(as_expression(c, COORDS) for c in phi)
    rho = tuple(as_expression(c, COORDS) for c in rho)
    M, _ = _derivative_matrix_jets(P, phi, rho, xy_arrays(points), 0)
    # the symmetric part (S_00, S_01, S_11)
    sym = (M[0][0], (M[0][1] + M[1][0]) * 0.5, M[1][1])
    return max_abs(*(s.value for s in sym))


def canonical_connection_from_congruence(P, phi, point):
    """Solve the three symmetrized-derivative equations for the two
    components of rho at a point (least squares at jet level).  The
    leftover residual vanishes exactly when phi is tangent to a geodesic
    congruence.

    Also reports r(phi, phi) for the representative connection adapted
    to the congruence.  With the solved rho the covariant derivative of
    phi is skew, and a further trace shift gamma with gamma(phi) equal
    to minus the skew part makes it vanish outright; the curvature of
    the shifted connection then annihilates phi up to a line-bundle
    curvature term, so its r(phi, phi) must vanish whenever the residual
    does.
    """
    phi = tuple(as_expression(c, COORDS) for c in phi)
    zero = (Expression.const(0.0), Expression.const(0.0))
    M0, low = _derivative_matrix_jets(P, phi, zero, point, 1)
    p = low  # lowered components as order-1 jets
    if p[0].value == 0.0 and p[1].value == 0.0:
        raise np.linalg.LinAlgError("congruence field vanishes at the point")
    # sym(M0 + rho phi): rows (00, 01, 11), columns (rho_0, rho_1)
    A = [[p[0], p[0].space.constant(0.0)],
         [p[1] * 0.5, p[0] * 0.5],
         [p[0].space.constant(0.0), p[1]]]
    b = [-M0[0][0], -(M0[0][1] + M0[1][0]) * 0.5, -M0[1][1]]
    # least squares via normal equations, solved at jet level
    N = [[sum((A[i][j] * A[i][k] for i in range(3)),
              p[0].space.constant(0.0)) for k in range(2)] for j in range(2)]
    rhs = [[sum((A[i][j] * b[i] for i in range(3)), p[0].space.constant(0.0))]
           for j in range(2)]
    rho = [row[0].truncate(1) for row in jet_gauss_solve(N, rhs)]
    resid = max(abs((A[i][0] * rho[0] + A[i][1] * rho[1] - b[i]).value)
                for i in range(3))
    # full derivative matrix with the solved rho; its skew part m
    M = [[(M0[B][C] + rho[B] * p[C]).truncate(1) for C in range(2)]
         for B in range(2)]
    m = (M[0][1] - M[1][0]) * 0.5
    # trace shift killing the skew part: gamma(phi) = -m, smooth choice
    # gamma_B = -m phi^B / |phi|^2 (Euclidean dual in the chart)
    up = [p[1], -p[0] * 1.0]  # raise back: phi^0 = phi_1, phi^1 = -phi_0
    norm2 = (up[0] * up[0] + up[1] * up[1]).truncate(1)
    gam = [(-1.0 * m * up[B] * norm2.reciprocal()).truncate(1)
           for B in range(2)]
    r = _shifted_ricci(P, gam, point)
    pv = np.array([up[0].value, up[1].value])
    return {"rho": np.array([rho[0].value, rho[1].value]),
            "residual": resid,
            "r_phi_phi": float(pv @ r @ pv)}


def _shifted_ricci(P, gam, point):
    """r + D gamma - gamma (x) gamma: the Ricci form of the representative
    connection shifted by the 1-form gamma (a pair of order-1 jets), as
    values r[..., A, B] at `point`."""
    g = P.christoffel_jets(point, 0)
    gv = np.stack(np.broadcast_arrays(gam[0].value, gam[1].value), axis=-1)
    dgam = np.zeros(gv.shape + (2,))
    for A in range(2):
        for B in range(2):
            dgam[..., A, B] = gam[B].derivative(COORDS[A]).value
            for E in range(2):
                dgam[..., A, B] -= g[E][A][B].value * gv[..., E]
    return P.ricci_values(point) + dgam - gv[..., :, None] * gv[..., None, :]


def _weyl_gamma_jets(P, cong1, cong2, point):
    """Order-1 jets of the 1-form gamma shifting the representative
    connection to the Weyl connection of the conformal metric
    c = phi1 . phi2, together with the order-1 jets of c and the full
    six-equation consistency residual of (D + [gamma]) c = 0."""
    order = 1
    space = JetSpace(COORDS, order + 1)
    env = space.seed({"x": point[0], "y": point[1]})
    low = []
    for cong in (cong1, cong2):
        ph = [evaluate(c, env, space=space) for c in cong.phi]
        low.append([-ph[1], ph[0]])
    # weight-4 symmetric form c_{AC} = (phi1_A phi2_C + phi1_C phi2_A)/2
    c = [[(low[0][A] * low[1][C] + low[0][C] * low[1][A]) * 0.5
          for C in range(2)] for A in range(2)]
    g = P.christoffel_jets(point, order)
    tr = [g[0][B][0] + g[1][B][1] for B in range(2)]
    rho = [evaluate(cong1.rho[B], env, space=space).truncate(order)
           + evaluate(cong2.rho[B], env, space=space).truncate(order)
           for B in range(2)]
    ct = [[c[A][C].truncate(order) for C in range(2)] for A in range(2)]
    Dc = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for B in range(2):
        for A in range(2):
            for C in range(2):
                val = c[A][C].derivative(COORDS[B])
                for E in range(2):
                    val = val - g[E][B][A] * ct[E][C] - g[E][B][C] * ct[A][E]
                val = val + tr[B] * ct[A][C] * (4.0 / 3.0)
                val = val + rho[B] * ct[A][C]
                Dc[B][A][C] = val.truncate(order)
    # the bracket action on c is 2 gamma_B c_{AC} - gamma_A c_{BC}
    # - gamma_C c_{AB}; the (B;AC) = (0;11) and (1;00) equations give a
    # 2x2 system whose determinant is a multiple of det c.
    A2 = [[2.0 * ct[1][1], (-2.0) * ct[0][1]],
          [(-2.0) * ct[0][1], 2.0 * ct[0][0]]]
    b2 = [[-Dc[0][1][1]], [-Dc[1][0][0]]]
    gam = jet_gauss_solve(A2, b2)
    gam = [gam[0][0], gam[1][0]]
    consistency = max_abs(*(Dc[B][A][C].value
                            + 2.0 * gam[B].value * ct[A][C].value
                            - gam[A].value * ct[B][C].value
                            - gam[C].value * ct[A][B].value
                            for B in range(2) for A in range(2)
                            for C in range(A, 2)))
    return gam, ct, consistency


def divisor_two_report(P, cong1, cong2, points, tol=1e-8):
    """Certify the curvature dichotomy for a pair of weighted congruences.

    Builds the conformal metric c = phi1 . phi2 (which has both phi's as
    null directions), solves for its Weyl connection within the projective
    class, and computes the Ricci-type curvature r of that connection
    together with the curvatures F^i = d rho_i of the two line-bundle
    connections.  The two verdict pairs certified are

        r symmetric  <=>  F^1 + F^2 = 0
        r skew       <=>  F^1 - F^2 = 0

    Returns all norms, the per-pair verdicts, and whether the pairs agree.
    """
    point = xy_arrays(points)
    gam, _, dc_res = _weyl_gamma_jets(P, cong1, cong2, point)
    r = _shifted_ricci(P, gam, point)
    rt = r.swapaxes(-1, -2)
    sym_norm = max_abs(r + rt) * 0.5
    skew_norm = max_abs(r - rt) * 0.5
    space = JetSpace(COORDS, 1)
    env = space.seed({"x": point[0], "y": point[1]})
    F = []
    for cong in (cong1, cong2):
        rh = [evaluate(c, env, space=space) for c in cong.rho]
        F.append(rh[1].derivative("x").value - rh[0].derivative("y").value)
    fsum = max_abs(F[0] + F[1])
    fdiff = max_abs(F[0] - F[1])
    report = {
        "dc_residual": dc_res,
        "sym_r": sym_norm,
        "skew_r": skew_norm,
        "f_sum": fsum,
        "f_diff": fdiff,
        "r_symmetric": skew_norm < tol,
        "sum_flat": fsum < tol,
        "r_skew": sym_norm < tol,
        "diff_flat": fdiff < tol,
    }
    report["consistent"] = (report["r_symmetric"] == report["sum_flat"]
                            and report["r_skew"] == report["diff_flat"])
    return report


def ward_transport(P, rho, start, length, step):
    """Parallel transport of a line-bundle section along a geodesic.

    Integrates the scalar transport equation s' = -rho(gamma') s jointly
    with the geodesic flow (RK4, same chart switching as
    integrate_geodesic).  For rho = df the result is
    exp(f(start) - f(end)).  Returns the final (x, y, lam, s) state.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rho = tuple(as_expression(c, COORDS) for c in rho)
    a_exprs = P.spray_coeffs()
    space = JetSpace(COORDS, 0)

    def fields(x, y):
        env = space.seed({"x": x, "y": y})
        a = [evaluate(c, env, space=space).value for c in a_exprs]
        r = [evaluate(c, env, space=space).value for c in rho]
        return a, r

    def rhs1(state):
        x, y, lam, s = state
        a, r = fields(x, y)
        return np.array([1.0, lam,
                         a[0] + a[1]*lam + a[2]*lam**2 + a[3]*lam**3,
                         -(r[0] + r[1]*lam) * s])

    def rhs2(state):
        x, y, mu, s = state
        a, r = fields(x, y)
        return np.array([mu, 1.0,
                         -(a[0]*mu**3 + a[1]*mu**2 + a[2]*mu + a[3]),
                         -(r[0]*mu + r[1]) * s])

    x, y, lam = start
    s = 1.0
    n = int(round(length / step))
    for _ in range(n):
        if abs(lam) <= 1.0:
            state = np.array([x, y, lam, s])
            x, y, lam, s = _rk4(rhs1, state, step)
        else:
            state = np.array([x, y, 1.0 / lam, s])
            x, y, mu, s = _rk4(rhs2, state, step)
            lam = np.inf if mu == 0.0 else 1.0 / mu
    return {"transport": s, "end": np.array([x, y, lam])}


def _rk4(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def projective_field_residual(P, V, points, lambdas=(0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)):
    """How far the flow of the vector field V is from permuting geodesics.

    V = (V^0, V^1) lifts to the projectivized tangent bundle with
    lamdot = V^1_x + lam (V^1_y - V^0_x) - lam^2 V^0_y.  The lift
    preserves the geodesic foliation iff its bracket with the spray is
    proportional to the spray; the residual is the least-squares
    component of the bracket orthogonal to the spray, maximized over
    sample points and slopes.
    """
    V = tuple(as_expression(c, COORDS) for c in V)
    vars3 = COORDS + ("lambda",)
    lam = Expression.var("lambda")
    lamdot = (V[1].diff("x") + lam * (V[1].diff("y") - V[0].diff("x"))
              - lam * lam * V[0].diff("y"))
    lift = [V[0], V[1], lamdot]
    spray = [Expression.const(1.0), lam, P.spray_cubic()]
    # axes (point, lam), as in pairs.lax_residual
    x, y = xy_arrays(points)
    space = JetSpace(vars3, 1)
    env = space.seed({"x": x[:, None], "y": y[:, None],
                      "lambda": np.asarray(lambdas, dtype=float)})
    batch = (len(x), len(lambdas))

    def coeffs(exprs):
        return [np.broadcast_to(evaluate(c, env, space=space).coeffs,
                                batch + (len(space),)) for c in exprs]

    lj, sj = coeffs(lift), coeffs(spray)
    # [lift, spray]^i = sum over k of lift^k d_k spray^i - spray^k d_k lift^i
    bracket = []
    for i in range(3):
        acc = 0.0
        for k in range(3):
            acc += (lj[k][..., 0] * sj[i][..., 1 + k]
                    - sj[k][..., 0] * lj[i][..., 1 + k])
        bracket.append(acc)
    bracket = np.stack(bracket, axis=-1)
    sval = np.stack([c[..., 0] for c in sj], axis=-1)
    perp = np.empty_like(bracket)
    for n in np.ndindex(batch):
        coef, _, _, _ = np.linalg.lstsq(sval[n].reshape(-1, 1), bracket[n],
                                        rcond=None)
        perp[n] = bracket[n] - coef[0] * sval[n]
    return max_abs(perp)
