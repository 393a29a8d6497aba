"""4-metrics from integrable pairs and their curvature certification.

The frame read off a Lax pair on coordinates (x, y, w1, w2),

    X_00' = phi0,  X_01' = phi1,  X_10' = dx + alpha0,  X_11' = dy + alpha1,

determines the conformal metric through the dual coframe:

    g = theta^00' . theta^11' - theta^01' . theta^10',

with "." the symmetric product without a 1/2 (so that the null-Kaehler
family reproduces g = f(dz dy - (dt - az dx - c dy) dx) on the nose).
The metric has split signature (2,2).  The last two fields lift the base
coordinate fields, so theta^10' = dx and theta^11' = dy exactly: only the
pair's alpha and phi are evaluated, theta^00' and theta^01' come from
eliminating the fibre block [A | 0] over [Phi | I], and the frame volume
is det Phi.  Curvature runs entirely on jets: metric jets of order 2 give
Christoffels of order 1 (the metric inverted at order 1) and pointwise
Riemann/Ricci/Weyl values; the Weyl tensor is split into selfdual and
antiselfdual halves by the Hodge star acting on its second index pair.
The Killing residuals need metric jets of order 1 only (the metric
inverted at order 0).

The orientation sign ORIENTATION_SIGMA fixes which half is which: it is
calibrated once so that the antiselfdual half is the one that vanishes
on the (curved, non-conformally-flat) null-Kaehler family, and pinned by
a test.
"""
from __future__ import annotations

import itertools

import numpy as np

from .expr import Expression, as_expression, jets_at
from .jets import Jet, JetDomainError, JetSpace, stack
from .pairs import ProjectivePair, _dot, lie_bracket, lstsq

# Which Weyl half the construction kills; calibrated on the null-Kaehler
# family (see tests), stored once, never branched on.
ORIENTATION_SIGMA = 1.0

_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _sign = 1.0
    _p = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign
# its 24 nonzero entries in C order: the two of each (a, b) with a != b,
# at (m, n) and (n, m), are adjacent
_EPS_A, _EPS_B, _EPS_M, _EPS_N = np.nonzero(_EPS4)
_EPS_SIGN = _EPS4[_EPS_A, _EPS_B, _EPS_M, _EPS_N]


# -- jet linear algebra -------------------------------------------------------


def jet_gauss_solve(A, B):
    """Solve A X = B for matrices of jets by Gaussian elimination, pivoting
    at each point on the magnitude of constant terms.  A (n x n) and B
    (n x m) are jets whose last two batch axes are the matrix, as those
    of the returned X are."""
    space = A.space
    batch = np.broadcast_shapes(A.coeffs.shape[:-3], B.coeffs.shape[:-3])
    n, m, size = B.coeffs.shape[-3], B.coeffs.shape[-2], len(space)
    M = np.concatenate([np.broadcast_to(A.coeffs, batch + (n, n, size)),
                        np.broadcast_to(B.coeffs, batch + (n, m, size))],
                       axis=-2).reshape(-1, n, n + m, size)
    X = _eliminate(M, space)[:, :, n:].reshape(batch + (n, m, size))
    return Jet(space, X)


def _eliminate(M, space, start=0):
    """Eliminate in place, and return, the augmented jet matrices M[point,
    row, column, coefficient]: column j pivots at each point on the
    largest constant term among rows start + j and below, so that rows
    above `start` are eliminated but never pivot.

    At each column the pivot row is swapped in only at the points where
    it moves.  Then the pivot row is scaled, and every row whose entry in
    the column is nonzero at some point is eliminated; both touch only
    the columns right of the pivot, since the pivot column and those left
    of it are never read again.  The result is bit for bit that of
    eliminating all of the columns at every column."""
    n = M.shape[1]
    for col in range(n - start):
        row = start + col
        mag = np.abs(M[:, row:, col, 0])
        if np.any(np.max(mag, axis=-1) == 0.0):
            raise np.linalg.LinAlgError("singular jet matrix")
        # swap rows row and piv (the first largest) where they differ
        piv = row + np.argmax(mag, axis=-1)
        at = np.flatnonzero(piv != row)
        if at.size:
            M[at, row], M[at, piv[at]] = M[at, piv[at]], M[at, row]
        inv = Jet(space, M[:, row, col]).reciprocal().coeffs[:, None, :]
        M[:, row, col + 1:] = space.product(M[:, row, col + 1:], inv)
        for r in range(n):
            f = M[:, r, col, None, :]
            if r != row and f.any():
                M[:, r, col + 1:] -= space.product(f, M[:, row, col + 1:])
    return M


def jet_matrix_inverse(A):
    return jet_gauss_solve(A, A.space.constant(np.eye(A.value.shape[-1])))


# -- metric assembly ----------------------------------------------------------


class MetricBuilder:
    """Produces order-k jets of the 4x4 metric of a pair's frame (its alpha
    and phi fields), optionally scaled by a conformal factor."""

    def __init__(self, pair, factor=None):
        if len(pair.fiber) != 2:
            raise ValueError("a 4-metric needs a 2-dimensional fiber")
        self.pair = pair
        self.coords = pair.coords
        self.factor = (as_expression(factor, self.coords)
                       if factor is not None else None)

    def jets(self, point, order=2):
        """The metric jets at `point` (a mapping of the coordinates to
        numbers or to equal-shaped arrays): one jet whose batch axes are the
        point axes and the two indices of the symmetric 4x4 matrix.  Also
        the orientation the Hodge star must be taken in: the sign of the
        frame volume form against the coordinate one, at each point."""
        space = JetSpace(self.coords, order)
        # rows phi0, phi1, alpha0, alpha1 of the frame [[0, Phi], [I, A]] at
        # w1, w2; its determinant is det Phi, and eliminating [A | 0] over
        # [Phi | I] (in place) leaves theta^0, theta^1 right
        F = jets_at(self.pair.phi + self.pair.alpha, space, point).coeffs
        orientation = np.sign(np.linalg.det(F[..., :2, :, 0]))
        block = np.zeros(F.shape[:-2] + (4, len(space)))
        block[..., :2, :2, :] = F[..., 2:, :, :]
        block[..., 2:, :2, :] = F[..., :2, :, :]
        block[..., [2, 3], [2, 3], 0] = 1.0
        _eliminate(block.reshape((-1,) + block.shape[-3:]), space, 2)
        # g_ij = th0_i th3_j + th0_j th3_i - th1_i th2_j - th1_j th2_i
        P, Q = np.zeros_like(block), np.zeros_like(block)
        P[..., :, 1, :] = block[..., :, 2, :]
        Q[..., :, 0, :] = block[..., :, 3, :]
        g = Jet(space, P + P.swapaxes(-3, -2) - Q - Q.swapaxes(-3, -2))
        if self.factor is not None:
            g = g * jets_at(self.factor, space, point)[..., None, None]
        return g, orientation


# -- curvature pipeline -------------------------------------------------------
#
# Metric jets may carry leading point axes; every value array below then
# has them in front of its tensor indices, and no residual is reduced.
# Value and gradient arrays are made contiguous before matmul and einsum,
# so that these take the code path a single point's arrays take.

# the pairs (b, c) with c >= b, and the pair index of every (b, c)
_B10, _C10 = np.triu_indices(4)
_PAIR = np.zeros((4, 4), dtype=np.intp)
_PAIR[_B10, _C10] = _PAIR[_C10, _B10] = np.arange(10)


def christoffel_jets_4d(g):
    """Order-(k-1) jets of the Levi-Civita Christoffels G^a_bc and of the
    inverse metric, from order-k metric jets g (k >= 1, in g.space.vars);
    returned as jets whose last batch axes are (a, b, c) and (a, b)."""
    low = g.truncate(g.space.order - 1)
    ginv = jet_matrix_inverse(low)
    # dg[..., i, j, k] = d_k g_ij
    # t[..., d, b, c] = d_b g_dc + d_c g_bd - d_d g_bc
    dg = stack([g.derivative(c) for c in g.space.vars])
    t = dg.moveaxis(-1, -2) + dg.moveaxis(-2, -3) - dg.moveaxis(-1, -3)
    # ginv_ad t_dbc at (a, d, pair), added in d order; computed for c >= b
    # and mirrored, as g need not be bitwise symmetric
    terms = ginv[..., :, :, None] * t[..., None, :, _B10, _C10]
    acc = (terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]
           + terms[..., 3, :])
    return (acc * 0.5)[..., :, _PAIR], ginv


def hodge_star_operator(gv, giv, orientation):
    """The star on 2-forms: (*F)_ab = 1/2 eps_ab^{cd} F_cd with
    eps_abcd = sigma * orientation * sqrt|det g| [abcd], where
    `orientation` is the sign of the frame volume form in the chart.

    Only the 24 nonzero entries (a, b, m, n) of [abmn] are summed: each
    term is (e * giv[m, c]) * giv[n, d] with e = scale * [abmn], and the
    two terms of each (a, b) are added and halved.  That is the dense
    einsum over all (m, n) to the bit, since its other terms add +-0 and
    a sum of two terms does not depend on their order; only the sign of
    a zero entry may differ.  On non-finite g it differs more: the dense
    sum has 0 * inf = NaN terms that this one never forms."""
    det = np.linalg.det(gv)
    scale = ORIENTATION_SIGMA * orientation * np.sqrt(np.abs(det))
    e = np.asarray(scale)[..., None, None, None] * _EPS_SIGN[:, None, None]
    terms = (e * giv[..., _EPS_M, :, None]) * giv[..., _EPS_N, None, :]
    star = np.zeros(terms.shape[:-3] + (4, 4, 4, 4))
    star[..., _EPS_A[::2], _EPS_B[::2], :, :] = 0.5 * (
        terms[..., 0::2, :, :] + terms[..., 1::2, :, :])
    return star


def curvature_report(g, orientation):
    """The curvature tensors of order-2 metric jets, point axes first and
    tensor indices last: Riemann all down ("riemann"), Ricci, trace-free
    Ricci and scalar ("ricci", "ricci_tracefree", "scalar"), Weyl+ and
    Weyl- first index up, the conformally invariant arrangement
    ("weyl_plus", "weyl_minus"), and ** - id on 2-forms ("star_defect");
    also the Hodge star ("star") and whether the metric value has
    signature (2, 2) at each point ("signature_ok")."""
    gam, ginv = christoffel_jets_4d(g)
    gv = np.ascontiguousarray(g.value)
    giv = np.ascontiguousarray(ginv.value)
    gamv = np.ascontiguousarray(gam.value)
    # dgam[..., a, b, c, d] = d_d G^a_bc
    dgam = np.ascontiguousarray(gam.gradient())
    # R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
    Rup = (np.einsum("...adbc->...abcd", dgam)
           - np.einsum("...acbd->...abcd", dgam)
           + np.einsum("...ace,...edb->...abcd", gamv, gamv)
           - np.einsum("...ade,...ecb->...abcd", gamv, gamv))
    Rdown = np.einsum("...ae,...ebcd->...abcd", gv, Rup)
    ric = np.einsum("...abad->...bd", Rup)
    scal = np.einsum("...bd,...bd->...", giv, ric)
    ric_tf = ric - 0.25 * scal[..., None, None] * gv
    # Schouten and the Kulkarni-Nomizu split of Riemann
    P = 0.5 * (ric - (scal / 6.0)[..., None, None] * gv)
    kn = (np.einsum("...ac,...bd->...abcd", gv, P)
          + np.einsum("...bd,...ac->...abcd", gv, P)
          - np.einsum("...ad,...bc->...abcd", gv, P)
          - np.einsum("...bc,...ad->...abcd", gv, P))
    weyl = Rdown - kn
    star = hodge_star_operator(gv, giv, orientation)
    # ** = id on 2-forms in split signature; measure the defect against
    # the antisymmetrized identity
    star_sq = np.einsum("...abmn,...mncd->...abcd", star, star)
    weyl_star = np.einsum("...cdef,...abef->...abcd", star, weyl)
    wplus = 0.5 * (weyl + weyl_star)
    wminus = 0.5 * (weyl - weyl_star)
    wplus_up = np.einsum("...ae,...ebcd->...abcd", giv, wplus)
    wminus_up = np.einsum("...ae,...ebcd->...abcd", giv, wminus)
    # eigvalsh need not converge on a non-finite matrix; such a point is
    # given the zero matrix, which has no (2,2) signature
    finite = np.isfinite(gv).all(axis=(-2, -1))
    eigs = np.linalg.eigvalsh(np.where(finite[..., None, None], gv, 0.0))
    return {
        "riemann": Rdown,
        "ricci": ric,
        "ricci_tracefree": ric_tf,
        "scalar": scal,
        "weyl_plus": wplus_up,
        "weyl_minus": wminus_up,
        "star_defect": star_sq - _ANTISYM,
        "signature_ok": ((eigs > 0).sum(axis=-1) == 2)
                        & ((eigs < 0).sum(axis=-1) == 2),
        "star": star,
    }


_ANTISYM = 0.5 * (np.einsum("ac,bd->abcd", np.eye(4), np.eye(4))
                  - np.einsum("ad,bc->abcd", np.eye(4), np.eye(4)))


# -- Killing / twist / distributions ------------------------------------------


def killing_report(g, fields, points):
    """Residual arrays, point axes first, for each vector field of `fields`
    (a mapping of names to components), from metric jets of order 1 (or
    more): L_K g and its trace-free part ("exact_killing",
    "conformal_killing"), g(K, K) ("null_defect"), the twist density
    ("twist") and the defect of K-geodesy ("geodesic").  Returns a mapping
    of the same names to them; the fields share the metric's inverse and
    Christoffels.

    The twist is the permutation-symbol dual of alpha ^ d alpha with
    alpha = g(K, .), contracted back onto K with the Euclidean inner
    product (a density: only vanishing and point-to-point proportionality
    are meaningful).  The geodesic residual is the part of D_K K not
    proportional to K, measured with the Euclidean inner product since K
    is typically null.
    """
    coords = g.space.vars
    gv = np.ascontiguousarray(g.value)
    giv = np.linalg.inv(gv)
    dg = np.ascontiguousarray(g.gradient())
    gam, _ = christoffel_jets_4d(g)
    gamv = np.ascontiguousarray(gam.value)
    reports = {}
    for name, K in fields.items():
        K = [as_expression(c, coords) for c in K]
        Kj = jets_at(K, g.space, points)
        Kv = np.ascontiguousarray(Kj.value)
        dK = np.ascontiguousarray(Kj.gradient())  # dK[..., a, b] = d_b K^a
        lie = (np.einsum("...c,...abc->...ab", Kv, dg)
               + np.einsum("...cb,...ca->...ab", gv, dK)
               + np.einsum("...ac,...cb->...ab", gv, dK))
        trace = np.einsum("...ab,...ab->...", giv, lie)
        conf = lie - 0.25 * trace[..., None, None] * gv
        null = ((Kv[..., None, :] @ gv) @ Kv[..., :, None])[..., 0, 0]
        # twist: alpha = g(K, .) as jets
        terms = g * Kj[..., None, :]
        alpha = terms[..., 0]
        for b in range(1, 4):
            alpha = alpha + terms[..., b]
        av = np.ascontiguousarray(alpha.value)
        # da[..., a, b] = d_b alpha_a
        da = np.ascontiguousarray(alpha.gradient())
        # (d alpha)_bc = d_b alpha_c - d_c alpha_b
        curl = da.swapaxes(-1, -2) - da
        T = (np.einsum("...a,...bc->...abc", av, curl)
             + np.einsum("...b,...ca->...abc", av, curl)
             + np.einsum("...c,...ab->...abc", av, curl))
        w = np.einsum("dabc,...abc->...d", _EPS4, T) / 6.0
        norm2 = _dot(Kv, Kv)
        if np.any(norm2 == 0.0):
            raise JetDomainError("the field vanishes at a sample point")
        twist = _dot(w, Kv) / norm2
        # geodesic residual
        acc = (np.einsum("...b,...ab->...a", Kv, dK)
               + np.einsum("...abc,...b,...c->...a", gamv, Kv, Kv))
        perp = acc - (_dot(acc, Kv) / norm2)[..., None] * Kv
        reports[name] = {"exact_killing": lie, "conformal_killing": conf,
                         "null_defect": null, "twist": twist,
                         "geodesic": perp}
    return reports


def frobenius_residual(fields, coords, points):
    """The component of [V_i, V_j] outside span{fields} (least squares),
    point axes first, then the pairs i < j, then the component."""
    coords = tuple(coords)
    fields = [[as_expression(c, coords) for c in f] for f in fields]
    F = jets_at(fields, JetSpace(coords, 1), points)
    vals = np.ascontiguousarray(F.value)   # vals[p, field, component]
    if np.any(np.linalg.matrix_rank(vals) < len(fields)):
        raise np.linalg.LinAlgError("dependent fields at sample point")
    i, j = np.triu_indices(len(fields), 1)
    # axes (point, field pair, .) and (point, 1, component, field)
    bracket = lie_bracket(F[..., i, :], F[..., j, :])
    span = vals.swapaxes(-1, -2)[..., None, :, :]
    coef = lstsq(span, bracket[..., None])
    return bracket - (span @ coef)[..., 0]


# -- null-Kaehler family ------------------------------------------------------


def build_null_kahler(a, c, f):
    """The two-function family: pair with L0 = dz + lam dt,
    L1 = dx + a z dt + lam (dy + c dt) + a dlam over the spray with
    a0 = a(x, y), conformal factor f(x, z).

    Returns the surface, the pair, the metric builder and a checker of the
    structure identities of J = dz (x) dt + dx (x) dy and w = f dx ^ dz."""
    from .projective import ProjectiveSurface

    a = as_expression(a, ("x", "y"))
    c = as_expression(c, ("x", "y"))
    coords = ("x", "y", "t", "z")
    f = as_expression(f, coords)
    P = ProjectiveSurface({(1, 0, 0): a})
    z = Expression.var("z")
    pair = ProjectivePair(("t", "z"),
                          alpha0=[a * z, 0.0], alpha1=[c, 0.0],
                          phi0=[0.0, 1.0], phi1=[1.0, 0.0])
    builder = MetricBuilder(pair=pair, factor=f)
    # J sends d_z to d_t and d_x to d_y + c d_t; the c-term is what makes
    # g(J., .) skew when c is nonzero (it drops out for c = 0).  Stored as
    # J^a_b with a the component index, coords (x, y, t, z).
    zero = Expression.const(0.0)
    one = Expression.const(1.0)
    J_expr = [[zero] * 4 for _ in range(4)]
    J_expr[2][3] = one
    J_expr[1][0] = one
    J_expr[2][0] = c
    omega = [[zero] * 4 for _ in range(4)]
    omega[0][3] = f
    omega[3][0] = -f

    def check(points, g, star):
        """The defect arrays of the structure identities at the points,
        given the metric jets (order 1 or more) and the Hodge star that
        `curvature_report` forms from them."""
        space = JetSpace(coords, 1)
        J = np.ascontiguousarray(jets_at(J_expr, space, points).value)
        om = jets_at(omega, space, points)
        omv = np.ascontiguousarray(om.value)
        dom = om.gradient()   # dom[..., i, j, k] = d_k omega_ij
        d3 = (np.einsum("...jki->...ijk", dom)
              + np.einsum("...kij->...ijk", dom) + dom)
        gv = np.ascontiguousarray(g.value)
        # omega(U, V) = g(JU, V):  omega_ab = J^c_a g_cb
        compat = np.einsum("...ca,...cb->...ab", J, gv) - omv
        gjj = np.einsum("...ca,...db,...cd->...ab", J, J, gv)
        starom = np.einsum("...abcd,...cd->...ab", star, omv)
        return {"domega": d3, "compat": compat, "J_null": J @ J,
                "g_JJ": gjj, "killing": g.gradient()[..., 2],
                "omega_antiselfdual": starom + omv}

    return {"surface": P, "pair": pair, "metric": builder, "check": check}
