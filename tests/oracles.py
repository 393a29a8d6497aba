"""Reference computations the tests check the package against.

None of these serves a command: they are independent routes to the same
quantities (a derivative read off a jet, the curvature rebuilt from r,
the canonical line-bundle connection solved at one point, ...), or
constructors of test data (projective changes, trivial pairs, slope
congruences).  Those that read a package object (a jet, a surface, a
Lax pair) take it as their first argument.
"""
import math

import numpy as np

from sdconformal import expr as expr_module
from sdconformal.conformal import (_EPS4, ORIENTATION_SIGMA, MetricBuilder,
                                   curvature_report, jet_gauss_solve,
                                   jet_matrix_inverse)
from sdconformal.expr import (BinOp, Call, Const, ExprDomainError, Expression,
                              Neg, Pow, UnknownIdentifierError, Var,
                              _print, as_expression, jets_at)
from sdconformal.jets import Jet, JetDomainError, JetSpace, max_abs, stack
from sdconformal.minitwistor import (WeightedCongruence, _shifted_ricci,
                                     _weyl_gamma_jets)
from sdconformal.pairs import (LaxPair, ProjectivePair, _fiber_divergence,
                               build_lax, lax_residual)
from sdconformal.projective import COORDS, ProjectiveSurface


# -- sample sets -----------------------------------------------------------------

def point_rows(points):
    """A sample set (a dict of coordinate arrays) as the list of its
    points, each a dict of floats, in sample order."""
    return [dict(zip(points, map(float, row)))
            for row in zip(*points.values())]


def point_slices(points):
    """Each point of a sample set as a sample set of one point, the slice
    {name: values[n:n + 1]}, in sample order."""
    count = len(next(iter(points.values())))
    return [{name: v[n:n + 1] for name, v in points.items()}
            for n in range(count)]


def sample_set(points):
    """The sample set (a dict of coordinate arrays) of a list of points,
    each a dict over the coordinates or an (x, y) pair."""
    if not isinstance(points[0], dict):
        points = [{"x": x, "y": y} for x, y in points]
    return {name: np.array([p[name] for p in points], dtype=float)
            for name in points[0]}


# -- expressions and jets -------------------------------------------------------

def to_source(e):
    return _print(e)


def evaluate(e, env, space):
    """Evaluate `e` over jets of `space` at the point `env`, which maps
    its variables to jets of that space; plain numbers are lifted to
    constants.  `e` is compiled, and its plan run."""
    plan = expr_module.compile([e], space)
    return plan.run([x if isinstance(x, Jet) else space.constant(float(x))
                     for x in plan.bind(env)])[0]


def reference_eval(e, env, space):
    """`expr.evaluate` as a recursive walk of the tree, every node at
    every visit: what compiled plans replaced, kept to check them."""
    missing = e.free_vars - set(env)
    if missing:
        raise UnknownIdentifierError(f"unassigned variables: {sorted(missing)}")
    try:
        return _walk(e, env, space)
    except JetDomainError as exc:
        raise ExprDomainError(str(exc)) from exc


def _walk(node, env, space):
    if isinstance(node, Const):
        return space.constant(node.value)
    if isinstance(node, Var):
        x = env[node.name]
        return x if isinstance(x, Jet) else space.constant(float(x))
    if isinstance(node, Neg):
        return -_walk(node.arg, env, space)
    if isinstance(node, BinOp):
        lhs = _walk(node.lhs, env, space)
        rhs = _walk(node.rhs, env, space)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Pow):
        return _walk(node.base, env, space) ** node.exponent
    if isinstance(node, Call):
        return getattr(_walk(node.arg, env, space), node.fn)()
    raise TypeError(node)


def eval_jet(e, space, point):
    """Evaluate with all space variables seeded at `point`."""
    return jets_at(e, space, point)


def unstack(jet, depth):
    """The nested list of jets, `depth` levels deep, that `jets.stack`
    makes `jet` from: its last `depth` batch axes are the nesting.  The
    entries are views of `jet`."""
    if depth == 0:
        return jet
    rest = (slice(None),) * depth
    return [unstack(Jet(jet.space, jet.coeffs[(..., i) + rest]), depth - 1)
            for i in range(jet.coeffs.shape[-1 - depth])]


def extract(jet, mu):
    """The partial derivative d^mu f of `jet` at its base points."""
    if isinstance(mu, int):
        mu = (mu,)
    mu = tuple(mu)
    if len(mu) != len(jet.space.vars):
        raise IndexError("multi-index length does not match variables")
    if mu not in jet.space.index:
        raise IndexError(f"multi-index {mu} exceeds jet order")
    fact = 1.0
    for m in mu:
        fact *= math.factorial(m)
    return jet.coeffs[..., jet.space.index[mu]] * fact


def product_sums(space, a, b):
    """`space.product(a, b)` summed in plain Python: each slot k is
    0.0 + p_1 + p_2 + ... over the pairs (i, j) with mindex i + j = k, in
    the order of the pair tables (i, then j), p = a[i] * b[j]."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    pairs = [[] for _ in space.mindex]
    for i, mi in enumerate(space.mindex):
        for j, mj in enumerate(space.mindex):
            k = space.index.get(tuple(x + y for x, y in zip(mi, mj)))
            if k is not None:
                pairs[k].append((i, j))
    out = np.empty(a.shape)
    for at in np.ndindex(*a.shape[:-1]):
        ai, bi = a[at].tolist(), b[at].tolist()
        for k, terms in enumerate(pairs):
            total = 0.0
            for i, j in terms:
                total = total + ai[i] * bi[j]
            out[at + (k,)] = total
    return out


def reference_gauss_solve(A, B):
    """`conformal.jet_gauss_solve` as it was before it eliminated on the
    live columns of [A | B]: every column of A and B is permuted at each
    pivot (`take_along_axis`), scaled and eliminated.  Kept to check the
    solver against, bit for bit."""
    a, b = stack(A), stack(B)
    space = a.space
    batch = np.broadcast_shapes(a.coeffs.shape[:-3], b.coeffs.shape[:-3])
    A = np.array(np.broadcast_to(a.coeffs, batch + a.coeffs.shape[-3:]))
    B = np.array(np.broadcast_to(b.coeffs, batch + b.coeffs.shape[-3:]))
    n = A.shape[-2]
    for col in range(n):
        mag = np.abs(A[..., col:, col, 0])
        if np.any(np.max(mag, axis=-1) == 0.0):
            raise np.linalg.LinAlgError("singular jet matrix")
        # swap rows col and piv at each point (piv: the first largest)
        piv = col + np.argmax(mag, axis=-1)
        perm = np.broadcast_to(np.arange(n), batch + (n,)).copy()
        np.put_along_axis(perm, piv[..., None], col, axis=-1)
        perm[..., col] = piv
        A = np.take_along_axis(A, perm[..., :, None, None], axis=-3)
        B = np.take_along_axis(B, perm[..., :, None, None], axis=-3)
        inv = Jet(space, A[..., col, col, :]).reciprocal().coeffs[..., None, :]
        A[..., col, :, :] = space.product(A[..., col, :, :], inv)
        B[..., col, :, :] = space.product(B[..., col, :, :], inv)
        for r in range(n):
            f = A[..., r, col, None, :].copy()
            if r == col or not f.any():
                continue
            A[..., r, :, :] -= space.product(f, A[..., col, :, :])
            B[..., r, :, :] -= space.product(f, B[..., col, :, :])
    return unstack(Jet(space, B), 2)


# -- projective surfaces --------------------------------------------------------

def spray_value(P, x, y, lam):
    a0, a1, a2, a3 = np.moveaxis(jets_at(
        P.spray_coeffs(), JetSpace(COORDS, 0), {"x": x, "y": y}).value,
        -1, 0)
    return a0 + a1 * lam + a2 * lam**2 + a3 * lam**3


def projective_change(P, gamma0, gamma1):
    """Shift the representative of P by the 1-form (gamma0, gamma1):
    G^A_BC -> G^A_BC + gamma_B delta^A_C + gamma_C delta^A_B."""
    gam = (as_expression(gamma0, COORDS), as_expression(gamma1, COORDS))
    shifted = {}
    for (A, B, C), expr in P.gamma.items():
        delta = Expression.const(0.0)
        if A == C:
            delta = delta + gam[B]
        if A == B:
            delta = delta + gam[C]
        shifted[(A, B, C)] = expr + delta
    out = ProjectiveSurface({})
    out.gamma = shifted
    return out


def reference_curvature_endomorphism(P, point, order=2):
    """`ProjectiveSurface.curvature_endomorphism` as it was on nested
    lists of jets: R[A][B], each entry summed in E order as
    (val + p) - q.  Kept to check the stacked form against, bit for bit."""
    g = unstack(P.christoffel_jets(point, order), 3)
    R = [[None, None], [None, None]]
    for A in range(2):
        for B in range(2):
            val = g[A][1][B].derivative("x") - g[A][0][B].derivative("y")
            for E in range(2):
                val = val + (g[A][0][E] * g[E][1][B]).truncate(order - 1) \
                          - (g[A][1][E] * g[E][0][B]).truncate(order - 1)
            R[A][B] = val
    return R


def reference_ricci(P, point, order=2):
    """`ProjectiveSurface.ricci` as it was on nested lists of jets, r[A][B];
    kept to check the stacked form against, bit for bit."""
    R = reference_curvature_endomorphism(P, point, order)
    r = [[None, None], [None, None]]
    r[0][0] = R[1][0]
    r[1][1] = -R[0][1]
    r[0][1] = (2 * R[1][1] - R[0][0]) * (1.0 / 3.0)
    r[1][0] = (R[1][1] - 2 * R[0][0]) * (1.0 / 3.0)
    return r


def ricci_values_at(P, point):
    """The values r[..., A, B] of `P`'s Ricci form at `point`, from its
    order-1 Christoffel jets there."""
    return P.ricci_values(P.christoffel_jets(point, 1))


def weyl_gamma_jets_at(P, cong1, cong2, point):
    """`minitwistor._weyl_gamma_jets` of `P`'s order-1 Christoffel jets and
    the congruences' order-2 jets at `point`, as `divisor_two_report`
    evaluates them."""
    return _weyl_gamma_jets(
        P.christoffel_jets(point, 1),
        jets_at([cong1.phi, cong2.phi, cong1.rho, cong2.rho],
                JetSpace(COORDS, 2), point))


def reconstruct_curvature(r_values):
    """B(r)^A_B from a 2x2 array of r values (inverse of the solve in
    `ProjectiveSurface.ricci`)."""
    r = np.asarray(r_values, dtype=float)
    R = np.zeros((2, 2))
    for A in range(2):
        for B in range(2):
            R[A][B] = (r[0][B] * (A == 1) - r[1][B] * (A == 0)
                       + (r[0][1] - r[1][0]) * (A == B))
    return R


def cotton(P, point):
    """The two components (C_0, C_1) of the covariant curl of r:
    C_C = D_0 r_1C - D_1 r_0C with the connection acting on both slots.
    Projectively invariant; needs third derivatives of the metric data,
    i.e. order-3 jets of the Christoffels."""
    g = unstack(P.christoffel_jets(point, 1), 3)
    r = unstack(P.ricci(P.christoffel_jets(point, 3)), 2)  # order-2 jets

    def Dr(B, A, C):
        out = r[A][C].derivative(COORDS[B]).value
        for E in range(2):
            out -= g[E][B][A].value * r[E][C].value
            out -= g[E][B][C].value * r[A][E].value
        return out

    return np.array([Dr(0, 1, 0) - Dr(1, 0, 0),
                     Dr(0, 1, 1) - Dr(1, 0, 1)])


def lifted_spray_velocity(P, state):
    """Velocity of (x, y, pi0, pi1) under the homogeneity-0 lift of the
    spray to TN: xdot^A = pi^A, pidot^A = pi^B pi^C Ghat^A_BC with
    Ghat^A_BC = G^A_BC - (2/3) delta^A_C G^E_BE."""
    x, y, p0, p1 = state
    if p0 == 0.0 and p1 == 0.0:
        raise ValueError("zero fiber vector")
    g = unstack(P.christoffel_jets({"x": x, "y": y}, 0), 3)
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


# -- pairs ----------------------------------------------------------------------

def trivial_pair(fiber=("w1", "w2")):
    """phi = coordinate fields, alpha = 0."""
    n = len(fiber)
    zero = [0.0] * n
    phi0 = [1.0 if i == 0 else 0.0 for i in range(n)]
    phi1 = [1.0 if i == min(1, n - 1) else 0.0 for i in range(n)]
    return ProjectivePair(fiber, zero, zero, phi0, phi1)


def certify_selfdual(P, pair, points, tol=1e-8, factor=None, lax_tol=1e-10):
    """Lax integrability of the pair, then the vanishing of the
    antiselfdual Weyl half of its metric at every sample point: what
    `certify-selfdual` checks, as the dict the package's former
    `conformal.certify_selfdual` returned."""
    lres = lax_residual(build_lax(P, pair), points)
    g, orientation = MetricBuilder(pair=pair, factor=factor).jets(points)
    curv = curvature_report(g, orientation)
    worst = {k: max_abs(curv[k]) for k in ("weyl_minus", "weyl_plus",
                                           "ricci", "star_defect")}
    signature_ok = bool(np.all(curv["signature_ok"]))
    lax = max_abs(lres["residual"])
    return {
        "lax_residual": lax,
        "lax_cubic_max": max_abs(lres["cubic"]),
        "weyl_minus": worst["weyl_minus"],
        "weyl_plus": worst["weyl_plus"],
        "ricci": worst["ricci"],
        "star_defect": worst["star_defect"],
        "signature_ok": signature_ok,
        "pass": (lax < lax_tol and worst["weyl_minus"] < tol
                 and signature_ok),
    }


def fiber_bracket_loop(u, v, first):
    """The fiber bracket `pairs.projective_pair_residual` formed before
    `pairs.ordered_bracket` (its local `vbracket` on (values, gradients)
    pairs), on `ordered_bracket`'s arguments; kept to check it against,
    bit for bit."""
    u = (u[..., 0], u[..., 1:])
    v = (v[..., 0], v[..., 1:])
    out = 0.0
    for j in range(u[0].shape[-1]):
        out = out + (u[0][..., j, None] * v[1][..., first + j]
                     - v[0][..., j, None] * u[1][..., first + j])
    return out


def field_bracket_loop(lj, sj):
    """The bracket `minitwistor.projective_field_residual` formed before
    `pairs.ordered_bracket`: one component i at a time, the terms added in
    k order, then stacked; kept to check it against, bit for bit."""
    bracket = []
    for i in range(lj.shape[-2]):
        acc = 0.0
        for k in range(lj.shape[-2]):
            acc += (lj[..., k, 0] * sj[..., i, 1 + k]
                    - sj[..., k, 0] * lj[..., i, 1 + k])
        bracket.append(acc)
    return np.stack(bracket, axis=-1)


def add_multiple_of_l0(lax, q):
    """The residual trivialization freedom L1 -> L1 + q(x, y) L0."""
    q = as_expression(q, lax.coords)
    L1 = {c: lax.L1[c] + q * lax.L0[c] for c in lax.coords}
    return LaxPair(lax.coords, dict(lax.L0), L1)


def area_connection_curvature(pair, points):
    """Curvature of the connection induced on the fiber-area line bundle.

    In the coordinate trivialization by dw1 ^ dw2 the connection form is
    theta = rho0 dx + rho1 dy with rho_i = div_w(alpha_i), vanishing on
    vertical vectors.  Its curvature has the horizontal component

        F(X, Y) = X(rho1) - Y(rho0)

    (X = dx + alpha0, Y = dy + alpha1; the commutator [X, Y] is vertical,
    so theta kills it) together with the mixed components F(X, d_wj) =
    -d_wj rho0 and F(Y, d_wj) = -d_wj rho1.  Returns the max of all
    components over the points.  Flatness means the divergences are
    fiber-independent and curl-free, i.e. removable by rescaling the
    area form by a base function; rho = 0 (the sdiff2 flag) is the
    already-rescaled case.
    """
    nf = len(pair.fiber)
    alpha = jets_at(pair.alpha, JetSpace(pair.coords, 2), points)
    a = alpha.value    # a[n, k, j]: component j of alpha_k
    # d[n, k, :]: gradient of rho_k, the fiber divergence of alpha_k
    d = _fiber_divergence(alpha, pair.fiber).gradient()
    # X(rho1) - Y(rho0): base derivative + vertical advection
    xr = d[:, 1, 0] + sum(a[:, 0, j] * d[:, 1, 2 + j] for j in range(nf))
    yr = d[:, 0, 1] + sum(a[:, 1, j] * d[:, 0, 2 + j] for j in range(nf))
    return max_abs(xr - yr, d[..., 2:2 + nf])


# -- 4-metrics and their curvature ---------------------------------------------

def frame_from_pair(pair):
    """The four frame fields of a pair as component Expressions in coords
    order (x, y, w1, w2): [phi0, phi1, dx + alpha0, dy + alpha1].
    `MetricBuilder` reads only the phi and alpha entries; this is the
    whole frame M = [[0, Phi], [I, A]], kept to check it against."""
    zero = Expression.const(0.0)
    one = Expression.const(1.0)
    return [[zero, zero, *pair.phi[0]], [zero, zero, *pair.phi[1]],
            [one, zero, *pair.alpha[0]], [zero, one, *pair.alpha[1]]]


def builder_frame(builder):
    """The frame of a pair's `MetricBuilder`: the one a test gave it as
    `builder.frame`, which it never reads, or else its pair's."""
    frame = getattr(builder, "frame", None)
    if frame is not None:
        return frame
    if builder.pair is None:
        raise ValueError("no frame on an explicit-component metric")
    return frame_from_pair(builder.pair)


def frame_values(builder, point):
    """The values of the frame fields of a pair's `MetricBuilder` at the
    sample set `point`, rows in frame order, columns in coords order."""
    return jets_at(builder_frame(builder), JetSpace(builder.coords, 0),
                   point).value


def four_product_metric(builder, point, order=2):
    """`MetricBuilder.jets`' frame route as it was before it formed g from
    two jet products and their transposes: four products, summed
    P + P' - Q - Q' in that order.  Kept to check it against, bit for
    bit."""
    space = JetSpace(builder.coords, order)
    frame = jets_at(builder_frame(builder), space, point)
    th = jet_matrix_inverse(frame).coeffs
    t0, t1, t2, t3 = (th[..., :, a, :] for a in range(4))
    mul = space.product
    g = (mul(t0[..., :, None, :], t3[..., None, :, :])
         + mul(t0[..., None, :, :], t3[..., :, None, :])
         - mul(t1[..., :, None, :], t2[..., None, :, :])
         - mul(t1[..., None, :, :], t2[..., :, None, :]))
    if builder.factor is not None:
        f = jets_at(builder.factor, space, point)
        g = space.product(g, f.coeffs[..., None, None, :])
    return Jet(space, g)


def null_kahler_check(check, builder, points):
    """The defect arrays of the structure identities of a
    `build_null_kahler` member at the points, from its metric jets and the
    Hodge star of their curvature report, as `build-nullkahler` computes
    them."""
    g, orientation = builder.jets(points)
    star = curvature_report(g, orientation)["star"]
    return check(points, g, star)


def full_solve_metric(builder, point, order=2):
    """`MetricBuilder.jets`' frame route as it was before it eliminated
    only the fibre block of the frame: the full 4x4 jet inverse, and g
    from two jet products and their transposes, P + P' - Q - Q'.  It
    takes any frame, not only a pair's.  Kept to check it against, bit
    for bit."""
    space = JetSpace(builder.coords, order)
    frame = jets_at(builder_frame(builder), space, point)
    th = jet_matrix_inverse(frame).coeffs
    t0, t1, t2, t3 = (th[..., :, a, :] for a in range(4))
    P = space.product(t0[..., :, None, :], t3[..., None, :, :])
    Q = space.product(t1[..., :, None, :], t2[..., None, :, :])
    g = P + P.swapaxes(-3, -2) - Q - Q.swapaxes(-3, -2)
    if builder.factor is not None:
        f = jets_at(builder.factor, space, point)
        g = space.product(g, f.coeffs[..., None, None, :])
    return Jet(space, g)


def christoffel_sum16(g, coords):
    """`conformal.christoffel_jets_4d` as it was before it formed only the
    pairs c >= b: one product per d over all 16 (b, c), added in d order,
    halved, and read at (min(b, c), max(b, c)).  Kept to check it
    against, bit for bit."""
    g = stack(g)
    low = g.truncate(g.space.order - 1)
    ginv = jet_matrix_inverse(low)
    dg = np.stack([g.derivative(c).coeffs for c in coords], axis=-2)
    t = dg.swapaxes(-3, -2) + dg.swapaxes(-4, -3) - np.moveaxis(dg, -2, -4)

    def term(d):  # ginv_ad t_dbc at indices (a, b, c)
        return low.space.product(ginv.coeffs[..., :, d, None, None, :],
                                 t[..., None, d, :, :, :])
    acc = term(0)
    for d in range(1, 4):
        acc = acc + term(d)
    lo = np.minimum.outer(np.arange(4), np.arange(4))
    hi = np.maximum.outer(np.arange(4), np.arange(4))
    return Jet(low.space, (acc * 0.5)[..., lo, hi, :]), ginv


def dense_hodge_star(gv, giv, orientation=1.0):
    """`conformal.hodge_star_operator` as a dense einsum over all 256
    (m, n) of eps_abmn, which it was before it summed only the 24 nonzero
    entries; kept to check it against."""
    det = np.linalg.det(gv)
    scale = ORIENTATION_SIGMA * orientation * np.sqrt(np.abs(det))
    eps = np.asarray(scale)[..., None, None, None, None] * _EPS4
    return 0.5 * np.einsum("...abmn,...mc,...nd->...abcd", eps, giv, giv)


# -- weighted congruences -------------------------------------------------------

def congruence_from_slope(beta):
    """The congruence of slope-beta geodesics, phi = (1, beta), with
    the canonical connection rho = (d beta/dy, 0) of the flat chart."""
    beta = as_expression(beta, COORDS)
    return WeightedCongruence((Expression.const(1.0), beta),
                              (beta.diff("y"), Expression.const(0.0)))


def derivative_matrix_jets(P, phi, rho, point, order):
    """The lowered covariant derivative M_{BC} = eps_{AC} D_B phi^A of a
    weight -1 congruence, as order-`order` jets, together with the
    lowered field (phi_0, phi_1) = (-phi^1, phi^0).  Lowering uses the
    chart area form eps_{01} = 1, which commutes with the weighted
    derivative."""
    ph, rh = unstack(jets_at([phi, rho], JetSpace(COORDS, order + 1), point),
                     2)
    rh = [r.truncate(order) for r in rh]
    g = unstack(P.christoffel_jets(point, order), 3)
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
    M, _ = derivative_matrix_jets(P, phi, rho, points, 0)
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
    M0, low = derivative_matrix_jets(P, phi, zero, point, 1)
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
    rho = [row[0].truncate(1)
           for row in unstack(jet_gauss_solve(stack(N), stack(rhs)), 2)]
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
    r = _shifted_ricci(P, P.christoffel_jets(point, 1), stack(gam))
    pv = np.array([up[0].value, up[1].value])
    return {"rho": np.array([rho[0].value, rho[1].value]),
            "residual": resid,
            "r_phi_phi": float(pv @ r @ pv)}


def reference_weyl_gamma_jets(P, cong1, cong2, point):
    """`minitwistor._weyl_gamma_jets` as it was on nested lists of jets:
    gamma[B] and c[A][C] as lists, each Dc entry summed in E order as
    (val - p) - q, and the consistency residuals stacked from one array
    per (B, A, C), A <= C.  Kept to check the stacked form against, bit
    for bit."""
    order = 1
    phi1, phi2, rho1, rho2 = unstack(jets_at(
        [cong1.phi, cong2.phi, cong1.rho, cong2.rho],
        JetSpace(COORDS, order + 1), point), 2)
    low = [[-ph[1], ph[0]] for ph in (phi1, phi2)]
    c = [[(low[0][A] * low[1][C] + low[0][C] * low[1][A]) * 0.5
          for C in range(2)] for A in range(2)]
    g = unstack(P.christoffel_jets(point, order), 3)
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
    A2 = [[2.0 * ct[1][1], (-2.0) * ct[0][1]],
          [(-2.0) * ct[0][1], 2.0 * ct[0][0]]]
    b2 = [[-Dc[0][1][1]], [-Dc[1][0][0]]]
    gam = [row[0] for row in
           unstack(jet_gauss_solve(stack(A2), stack(b2)), 2)]
    consistency = np.stack([np.stack([Dc[B][A][C].value
                                      + 2.0 * gam[B].value * ct[A][C].value
                                      - gam[A].value * ct[B][C].value
                                      - gam[C].value * ct[A][B].value
                                      for A in range(2) for C in range(A, 2)],
                                     axis=-1) for B in range(2)], axis=-2)
    return gam, ct, consistency
