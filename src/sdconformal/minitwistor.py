"""Divisor calculus on the surface side of the geodesic correspondence.

A geodesic congruence on the surface, together with a connection on an
auxiliary line bundle, plays the role of a degree-one divisor in the
space of geodesics.  This module assembles the conformal metric
attached to a pair of congruences (the degree-two case) with its Weyl
connection, checks the symmetric/skew curvature dichotomy against the
line-bundle curvatures, transports line-bundle sections along geodesics
(integrated as a fourth state component by
`ProjectiveSurface.integrate_geodesic`), and tests vector fields for
preserving the geodesic foliation.

Everything is chart-local: line bundles are trivialized over the working
coordinate patch, so their connections are plain 1-forms and weighted
objects are represented by bare components.  The weight-w action of the
trace part of a connection is (w/3) * Gamma^E_{BE}, the forced extension
of the algebraic bracket from the tangent bundle (where the trace is 3).
"""

import numpy as np

from .expr import Expression, as_expression, jets_at
from .jets import JetSpace, max_abs, unstack
from .projective import COORDS
from .conformal import jet_gauss_solve
from .pairs import DEFAULT_LAMBDAS, lstsq, ordered_bracket


class WeightedCongruence:
    """A weighted vector field phi = (phi^0, phi^1) tangent to a geodesic
    congruence, with the 1-form rho = (rho_0, rho_1) of the auxiliary
    line-bundle connection it is coupled to.  phi carries weight -1, so
    the certified equation is sym(D phi + rho phi) = 0 after lowering an
    index with the area form."""

    def __init__(self, phi, rho=("0", "0")):
        self.phi = tuple(as_expression(c, COORDS) for c in phi)
        self.rho = tuple(as_expression(c, COORDS) for c in rho)


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
    phi1, phi2, rho1, rho2 = unstack(jets_at(
        [cong1.phi, cong2.phi, cong1.rho, cong2.rho],
        JetSpace(COORDS, order + 1), point), 2)
    low = [[-ph[1], ph[0]] for ph in (phi1, phi2)]
    # weight-4 symmetric form c_{AC} = (phi1_A phi2_C + phi1_C phi2_A)/2
    c = [[(low[0][A] * low[1][C] + low[0][C] * low[1][A]) * 0.5
          for C in range(2)] for A in range(2)]
    g = P.christoffel_jets(point, order)
    tr = [g[0][B][0] + g[1][B][1] for B in range(2)]
    rho = [rho1[B].truncate(order) + rho2[B].truncate(order)
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
    gam = [row[0] for row in unstack(jet_gauss_solve(A2, b2), 2)]
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
    gam, _, dc_res = _weyl_gamma_jets(P, cong1, cong2, points)
    r = _shifted_ricci(P, gam, points)
    rt = r.swapaxes(-1, -2)
    sym_norm = max_abs(r + rt) * 0.5
    skew_norm = max_abs(r - rt) * 0.5
    # F[..., i] = d rho_i, the curvature of the i-th line bundle
    rho = jets_at([cong1.rho, cong2.rho], JetSpace(COORDS, 1), points)
    F = rho.derivative("x").value[..., 1] - rho.derivative("y").value[..., 0]
    fsum = max_abs(F[..., 0] + F[..., 1])
    fdiff = max_abs(F[..., 0] - F[..., 1])
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

    The scalar transport equation s' = -rho(gamma') s, integrated jointly
    with the geodesic flow by `ProjectiveSurface.integrate_geodesic`.  For
    rho = df the result is exp(f(start) - f(end)).  Returns the transport
    s and the final (x, y, lam) state.
    """
    last = P.integrate_geodesic(start, length, step, rho=rho)[-1]
    return {"transport": last[3], "end": last[:3]}


def projective_field_residual(P, V, points, lambdas=DEFAULT_LAMBDAS):
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
    # axes (point, lam), as in pairs.lax_residual; then lift or spray,
    # component, coefficient
    jets = jets_at([lift, spray], JetSpace(vars3, 1), {
        "x": np.asarray(points["x"])[..., None],
        "y": np.asarray(points["y"])[..., None],
        "lambda": np.asarray(lambdas, dtype=float)}).coeffs
    lj, sj = jets[..., 0, :, :], jets[..., 1, :, :]
    bracket = ordered_bracket(lj, sj)
    sval = sj[..., 0]
    coef = lstsq(sval[..., None], bracket[..., None])[..., 0]
    return max_abs(bracket - coef * sval)
