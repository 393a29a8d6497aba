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
Tensors are jets in `ProjectiveSurface`'s layout: point axes first,
index axes last.
"""

import numpy as np

from .expr import Expression, as_expression, jets_at
from .jets import JetSpace, max_abs, stack
from .projective import COORDS
from .conformal import jet_gauss_solve
from .pairs import DEFAULT_LAMBDAS, below, lstsq, ordered_bracket


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
    connection shifted by the 1-form gamma (one order-1 jet, index axis B
    last), as values r[..., A, B] at `point`."""
    g = P.christoffel_jets(point, 0).value
    gv = gam.value
    # dgam[..., A, B] = d_A gamma_B - G^E_AB gamma_E, subtracted in E order
    dgam = np.stack([gam.derivative(v).value for v in COORDS], axis=-2)
    for E in range(2):
        dgam = dgam - g[..., E, :, :] * gv[..., E, None, None]
    return P.ricci_values(point) + dgam - gv[..., :, None] * gv[..., None, :]


def _weyl_gamma_jets(P, cong1, cong2, point):
    """Order-1 jets of the 1-form gamma shifting the representative
    connection to the Weyl connection of the conformal metric
    c = phi1 . phi2 (index axis B last), together with the order-1 jets of
    c (index axes A, C last) and the residuals of the six equations of
    (D + [gamma]) c = 0 (axes B and the pairs A <= C last)."""
    # F[..., k, i]: component i of phi1, phi2, rho1, rho2 (k)
    F = jets_at([cong1.phi, cong2.phi, cong1.rho, cong2.rho],
                JetSpace(COORDS, 2), point)
    # f[..., k, A]: the lowered field (-phi^1, phi^0) of phi1, phi2 (k)
    f = stack([-F[..., :2, 1], F[..., :2, 0]])
    # weight-4 symmetric form c_{AC} = (phi1_A phi2_C + phi1_C phi2_A)/2
    pc = f[..., 0, :, None] * f[..., 1, None, :]
    c = (pc + pc.moveaxis(-2, -1)) * 0.5
    ct, g = c.truncate(1), P.christoffel_jets(point, 1)
    tr = g[..., 0, :, 0] + g[..., 1, :, 1]
    rho = F[..., 2, :].truncate(1) + F[..., 3, :].truncate(1)
    # Dc[..., B, A, C] = d_B c_AC - G^E_BA c_EC - G^E_BC c_AE (E in
    # order) + (4/3) tr_B c_AC + rho_B c_AC; p and q carry E first
    p = g[..., :, :, :, None] * ct[..., :, None, None, :]
    q = g[..., :, :, None, :] * ct.moveaxis(-2, -1)[..., :, None, :, None]
    Dc = stack([c.derivative(v) for v in COORDS]).moveaxis(-1, -3)
    for E in range(2):
        Dc = Dc - p[..., E, :, :, :] - q[..., E, :, :, :]
    cb = ct[..., None, :, :]   # c_AC at axes (B, A, C)
    Dc = Dc + (tr[..., :, None, None] * cb) * (4.0 / 3.0)
    Dc = Dc + rho[..., :, None, None] * cb
    # the bracket action on c is 2 gamma_B c_{AC} - gamma_A c_{BC}
    # - gamma_C c_{AB}; the (B;AC) = (0;11) and (1;00) equations give a
    # 2x2 system whose determinant is a multiple of det c.
    m = (-2.0) * ct[..., 0, 1]
    A2 = stack([[2.0 * ct[..., 1, 1], m], [m, 2.0 * ct[..., 0, 0]]])
    b2 = stack([[-Dc[..., 0, 1, 1]], [-Dc[..., 1, 0, 0]]])
    gam = jet_gauss_solve(A2, b2)[..., 0]
    # the six equations at axes (B, A, C), read where A <= C
    gv, cv = gam.value, ct.value
    res = (Dc.value + 2.0 * gv[..., :, None, None] * cv[..., None, :, :]
           - gv[..., None, :, None] * cv[..., :, None, :]
           - gv[..., None, None, :] * cv.swapaxes(-1, -2)[..., :, :, None])
    A, C = np.triu_indices(2)
    return gam, ct, res[..., A, C]


def divisor_two_report(P, cong1, cong2, points, tol=1e-8):
    """Certify the curvature dichotomy for a pair of weighted congruences.

    Builds the conformal metric c = phi1 . phi2 (which has both phi's as
    null directions), solves for its Weyl connection within the projective
    class, and computes the Ricci-type curvature r of that connection
    together with the curvatures F^i = d rho_i of the two line-bundle
    connections.  The two verdict pairs certified are

        r symmetric  <=>  F^1 + F^2 = 0
        r skew       <=>  F^1 - F^2 = 0

    Returns the consistency residuals of `_weyl_gamma_jets`
    ("dc_residual"), all norms, the verdicts and whether each pair agrees
    ("sym_equivalence", "skew_equivalence").  A verdict decided from a
    non-finite norm is None (undecided), and so is an agreement that
    reads one.
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
        "r_symmetric": below(tol, skew_norm),
        "sum_flat": below(tol, fsum),
        "r_skew": below(tol, sym_norm),
        "diff_flat": below(tol, fdiff),
    }
    sym = _agree(report["r_symmetric"], report["sum_flat"])
    skew = _agree(report["r_skew"], report["diff_flat"])
    report["sym_equivalence"], report["skew_equivalence"] = sym, skew
    return report


def _agree(a, b):
    """Whether two verdicts agree; None (undecided) if either is."""
    return None if a is None or b is None else a == b


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
    component of the bracket orthogonal to the spray: an array with the
    point axes first, then the slope lam and the component.
    """
    V = tuple(as_expression(c, COORDS) for c in V)
    vars3 = COORDS + ("lambda",)
    lam = Expression.var("lambda")
    lamdot = (V[1].diff("x") + lam * (V[1].diff("y") - V[0].diff("x"))
              - lam * lam * V[0].diff("y"))
    lift = [V[0], V[1], lamdot]
    spray = [Expression.const(1.0), lam, P.spray_cubic()]
    # axes (point, lam), as in pairs.lax_residual; then lift or spray and
    # the component
    jets = jets_at([lift, spray], JetSpace(vars3, 1), {
        "x": np.asarray(points["x"])[..., None],
        "y": np.asarray(points["y"])[..., None],
        "lambda": np.asarray(lambdas, dtype=float)})
    lj, sj = jets[..., 0, :], jets[..., 1, :]
    bracket = ordered_bracket(lj, sj)
    sval = sj.value
    coef = lstsq(sval[..., None], bracket[..., None])[..., 0]
    return bracket - coef * sval
