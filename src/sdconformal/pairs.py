"""Gauge pairs over a projective surface and their Lax representations.

A pair consists of gauge fields (alpha0, alpha1) and a weighted 1-form
(phi0, phi1), all vertical vector fields on a fiber with coordinates
(w1, w2) — or a single coordinate z for the 1-dimensional reduction —
depending on the base coordinates (x, y) as parameters.  The associated
Lax pair on the correspondence space is

    L0 = phi0 + lam phi1,
    L1 = d/dx + alpha0 + lam (d/dy + alpha1) + a(lam) d/dlam,

and the pair is integrable when [L0, L1] is proportional to L0 with a
multiplier polynomial b(lam) of degree <= 2.  The module certifies this
both directly (bracket + span projection) and through the equivalent
first-order system on the surface, and provides the concrete builders:
the z-linear normal form attached to a geodesic congruence, and the
two-fiber (t, z) family built by quadratures from a congruence.
"""
from __future__ import annotations

import numpy as np

from .expr import Expression, as_expression, evaluate
from .jets import JetSpace, max_abs, point_arrays, stack

BASE = ("x", "y")
DEFAULT_LAMBDAS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def _dot(u, v):
    """Pointwise dot products of the vectors on the last axis, with the
    BLAS dot a single pair of 1-D arrays gets."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class BuildError(ValueError):
    """A constructive builder's preconditions failed at sample points."""


class ProjectivePair:
    """Gauge data (alpha0, alpha1, phi0, phi1, c0, c1) over (x, y)."""

    def __init__(self, fiber, alpha0, alpha1, phi0, phi1, c0=0.0, c1=0.0):
        self.fiber = tuple(fiber)
        allowed = BASE + self.fiber
        def vert(v):
            comps = tuple(as_expression(c, allowed) for c in v)
            if len(comps) != len(self.fiber):
                raise ValueError("component count does not match fiber dimension")
            return comps
        self.alpha = (vert(alpha0), vert(alpha1))
        self.phi = (vert(phi0), vert(phi1))
        self.c_gauge = (as_expression(c0, BASE), as_expression(c1, BASE))

    @property
    def coords(self):
        return BASE + self.fiber

    @classmethod
    def trivial(cls, fiber=("w1", "w2")):
        """phi = coordinate fields, alpha = 0."""
        n = len(fiber)
        zero = [0.0] * n
        phi0 = [1.0 if i == 0 else 0.0 for i in range(n)]
        phi1 = [1.0 if i == min(1, n - 1) else 0.0 for i in range(n)]
        return cls(fiber, zero, zero, phi0, phi1)


class LaxPair:
    """Two lam-dependent vector fields on base + fiber + lam."""

    def __init__(self, coords, L0, L1):
        self.coords = tuple(coords)  # includes "lambda" last
        self.L0 = {c: L0.get(c, Expression.const(0.0)) for c in self.coords}
        self.L1 = {c: L1.get(c, Expression.const(0.0)) for c in self.coords}

    def components_at(self, point):
        """Order-1 jets of all components at a point dict (incl. lambda)."""
        space = JetSpace(self.coords, 1)
        env = space.seed(point)
        u = {c: evaluate(self.L0[c], env, space=space) for c in self.coords}
        v = {c: evaluate(self.L1[c], env, space=space) for c in self.coords}
        return u, v

    def bracket_at(self, point):
        """Values of [L0, L1] and of L0 at the point, as arrays whose last
        axis runs over the coordinates."""
        u, v = self.components_at(point)
        u = stack([u[c] for c in self.coords])
        v = stack([v[c] for c in self.coords])
        n = len(self.coords)
        batch = np.broadcast_shapes(*(np.shape(x) for x in point.values()))
        u, v = (np.broadcast_to(w.coeffs, batch + w.coeffs.shape[-2:])
                for w in (u, v))
        ug = np.ascontiguousarray(u[..., 1:n + 1])  # ug[..., i, j] = d_j u^i
        vg = np.ascontiguousarray(v[..., 1:n + 1])
        uv = np.ascontiguousarray(u[..., 0])
        vv = np.ascontiguousarray(v[..., 0])
        # [U,V]^i = u^j d_j v^i - v^j d_j u^i
        bracket = (vg @ uv[..., None])[..., 0] - (ug @ vv[..., None])[..., 0]
        return bracket, uv


def build_lax(P, pair: ProjectivePair) -> LaxPair:
    """Assemble L0 = phi0 + lam phi1 and L1 = dx + alpha0 + lam(dy + alpha1)
    + a(lam) dlam from the pair and the spray of P."""
    lam = Expression.var("lambda")
    coords = pair.coords + ("lambda",)
    L0 = {}
    L1 = {"x": Expression.const(1.0), "y": lam, "lambda": P.spray_cubic()}
    for i, w in enumerate(pair.fiber):
        L0[w] = pair.phi[0][i] + lam * pair.phi[1][i]
        L1[w] = pair.alpha[0][i] + lam * pair.alpha[1][i]
    return LaxPair(coords, L0, L1)


def add_multiple_of_l0(lax: LaxPair, q) -> LaxPair:
    """The residual trivialization freedom L1 -> L1 + q(x, y) L0."""
    q = as_expression(q, lax.coords)
    L1 = {c: lax.L1[c] + q * lax.L0[c] for c in lax.coords}
    return LaxPair(lax.coords, dict(lax.L0), L1)


def lax_residual(lax: LaxPair, points, lambdas=DEFAULT_LAMBDAS):
    """Span-membership residual of [L0, L1] against L0.

    At each sample point and each lam the bracket is projected onto L0;
    the orthogonal remainder is the integrability residual.  The
    projection coefficients c(lam) are then fitted by least squares with
    a cubic in lam: the first three coefficients are the multiplier
    b0, b1, b2 and the cubic coefficient must vanish for a certified
    pair (it plays the role of the obstruction c2).  All points and all
    lam are evaluated at once.

    Returns a dict with the max orthogonal residual, the per-point
    multiplier fits, and the largest cubic coefficient.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    vander = np.vander(lambdas, 4, increasing=True)
    state = {k: v[:, None] for k, v in point_arrays(points).items()}
    state["lambda"] = lambdas   # axes: (point, lam)
    bracket, l0 = lax.bracket_at(state)
    norm2 = _dot(l0, l0)
    if np.any(norm2 < 1e-24):
        n, k = np.argwhere(norm2 < 1e-24)[0]
        where = {**points[n], "lambda": float(lambdas[k])}
        raise np.linalg.LinAlgError(f"degenerate L0 at {where}")
    c = _dot(bracket, l0) / norm2
    perp = bracket - c[..., None] * l0
    worst = float(np.max(np.sqrt(_dot(perp, perp))))
    # one multi-RHS fit; row-major like a stack of single-point fits
    fits = np.ascontiguousarray(np.linalg.lstsq(vander, c.T, rcond=None)[0].T)
    return {
        "residual": worst,
        "b_coeffs": fits[:, :3],
        "cubic_max": float(np.abs(fits[:, 3]).max()),
    }


def projective_pair_residual(P, pair: ProjectivePair, points):
    """Max componentwise residual of the first-order system equivalent to
    Lax integrability (with multiplier b(lam) = c(lam) - a'(lam)/3):

      dx phi0 + [a0, phi0] + (c0 - 2/3 g0) phi0 + G^0_00 phi0 + G^1_00 phi1 = 0
      dx phi1 + [a0, phi1] + (c0 - 2/3 g0) phi1 + G^0_01 phi0 + G^1_01 phi1
        + dy phi0 + [a1, phi0] + (c1 - 2/3 g1) phi0 + G^0_10 phi0 + G^1_10 phi1 = 0
      dy phi1 + [a1, phi1] + (c1 - 2/3 g1) phi1 + G^0_11 phi0 + G^1_11 phi1 = 0

    where g0 = G^0_00 + G^1_01, g1 = G^0_10 + G^1_11 and the brackets are
    taken in the fiber variables only.
    """
    nf = len(pair.fiber)
    pt = point_arrays(points)
    batch = (len(points),)
    space = JetSpace(pair.coords, 1)
    base_space = JetSpace(BASE, 0)
    env = space.seed(pt)
    benv = base_space.seed({"x": pt["x"], "y": pt["y"]})

    def base_value(e):
        # per point, as a column against the component axis
        value = evaluate(e, benv, space=base_space).value
        return np.broadcast_to(value, batch)[:, None]

    def components(vec):
        # values [n, i] and gradients [n, i, coordinate] of a vertical field
        jets = stack([evaluate(c, env, space=space) for c in vec]).coeffs
        jets = np.broadcast_to(jets, batch + jets.shape[-2:])
        return jets[..., 0], jets[..., 1:len(pair.coords) + 1]

    gv = [[[base_value(P.christoffel(A, B, C)) for C in range(2)]
           for B in range(2)] for A in range(2)]
    g0 = gv[0][0][0] + gv[1][0][1]
    g1 = gv[0][1][0] + gv[1][1][1]
    c0, c1 = (base_value(c) for c in pair.c_gauge)
    a = [components(vec) for vec in pair.alpha]
    f = [components(vec) for vec in pair.phi]

    def vbracket(u, v):
        # [u, v]^i = u^j d_wj v^i - v^j d_wj u^i, values only
        out = 0.0
        for j in range(nf):
            out = out + (u[0][:, j, None] * v[1][..., 2 + j]
                         - v[0][:, j, None] * u[1][..., 2 + j])
        return out

    def dbase(vec, which):
        return vec[1][..., 0 if which == "x" else 1]

    phi0v, phi1v = f[0][0], f[1][0]
    eq1 = (dbase(f[0], "x") + vbracket(a[0], f[0])
           + (c0 - 2.0 / 3.0 * g0) * phi0v
           + gv[0][0][0] * phi0v + gv[1][0][0] * phi1v)
    eq2 = (dbase(f[1], "x") + vbracket(a[0], f[1])
           + (c0 - 2.0 / 3.0 * g0) * phi1v
           + gv[0][0][1] * phi0v + gv[1][0][1] * phi1v
           + dbase(f[0], "y") + vbracket(a[1], f[0])
           + (c1 - 2.0 / 3.0 * g1) * phi0v
           + gv[0][1][0] * phi0v + gv[1][1][0] * phi1v)
    eq3 = (dbase(f[1], "y") + vbracket(a[1], f[1])
           + (c1 - 2.0 / 3.0 * g1) * phi1v
           + gv[0][1][1] * phi0v + gv[1][1][1] * phi1v)
    return max_abs(eq1, eq2, eq3)


# -- constructive builders ----------------------------------------------------


def twist_free_normal_form(P, beta, points=None, tol=1e-8, check=True):
    """The z-linear pair attached to a geodesic congruence lam = beta(x, y):

        L0 = (lam - beta) dz,
        L1 = dx + lam dy + Q(lam) z dz + a(lam) dlam,

    with Q = -beta_y + 2/3 a'(beta) + 1/6 (lam - beta) a''(beta), which
    certifies with multiplier b(lam) = -a'(lam)/3.  (Expanding the bracket
    shows the beta_y term must enter with this sign for the multiplier to
    be z-independent; with the opposite sign the fitted b comes out as
    2 beta_y - a'(lam)/3, which is not a function of lam alone.)
    """
    beta = as_expression(beta, BASE)
    if check:
        pts = points if points is not None else [(0.5, 0.5)]
        res = P.congruence_residual(beta, pts)
        if not res <= tol:
            raise BuildError(f"congruence residual {res:.3e} exceeds {tol:.1e}")
    a0, a1, a2, a3 = P.spray_coeffs()
    da = a1 + 2 * a2 * beta + 3 * a3 * beta**2
    dda = 2 * a2 + 6 * a3 * beta
    z = Expression.var("z")
    by = beta.diff("y")
    # Q(lam) = Q0 + lam Q1 splits into the two gauge-field slots
    q0 = (-by + (2.0 / 3.0) * da - (1.0 / 6.0) * beta * dda) * z
    q1 = ((1.0 / 6.0) * dda) * z
    return ProjectivePair(("z",), [q0], [q1], [-beta], [1.0])


def dw_quadrature_build(P, gamma, c_twist, H, G, points=None, tol=1e-8,
                        check=True):
    """Two-fiber (t, z) pair built from a congruence by quadratures.

    Inputs: gamma(x, y) a geodesic congruence of P, a constant c (the
    twisting parameter, beta = gamma + c z), and functions H(x, y, z),
    G(x, y, z) supplying the quadrature data.  The pair is

        phi0 = H dt - beta dz,   phi1 = dz,
        alpha0 = E dz,           alpha1 = D dt + F dz,

    with E = (a1 + gamma a2 + gamma^2 a3 - gamma_y) z,
    F = a3 z (gamma + c z) + (a2 + gamma a3) z, D = -a3 G, and the
    constraints G_z = H plus the transport equations

        H_x + E H_z = 0   and   H_y + F H_z = 0

    checked at sample points.  (Expanding the bracket gives the
    multiplier b(lam) = -a3 lam (lam - beta) exactly, and then the
    lam-affine t-component of the bracket forces both transport
    equations; their lam = beta combination H_x + beta H_y +
    (E + beta F) H_z = 0 alone does not suffice.)

    The residual trivialization functions are c(lam) = b + a'(lam)/3 =
    a1/3 + (2 a2/3 + a3 gamma) lam; they are recorded on the pair so the
    first-order system certifies as well.  For a twisting pair (c != 0)
    with a3 != 0 the true c1 picks up the z-dependent a3 c z term, which
    falls outside the (x, y)-valued gauge frame; such pairs still certify
    under the bracket test.
    """
    allowed = BASE + ("t", "z")
    gamma = as_expression(gamma, BASE)
    H = as_expression(H, allowed)
    G = as_expression(G, allowed)
    z = Expression.var("z")
    beta = gamma + float(c_twist) * z
    a0, a1, a2, a3 = P.spray_coeffs()
    E = (a1 + gamma * a2 + gamma**2 * a3 - gamma.diff("y")) * z
    F = a3 * z * beta + (a2 + gamma * a3) * z
    D = -a3 * G

    if check:
        pts = points if points is not None else [{"x": 0.5, "y": 0.5, "t": 0.0, "z": 0.3}]
        base_pts = [(p["x"], p["y"]) for p in pts]
        res = P.congruence_residual(gamma, base_pts)
        if not res <= tol:
            raise BuildError(f"congruence residual {res:.3e} exceeds {tol:.1e}")
        gz_res, tr_res = _quadrature_residuals(H, G, E, F, pts)
        if not gz_res <= tol:
            raise BuildError(f"G_z - H residual {gz_res:.3e} exceeds {tol:.1e}")
        if not tr_res <= tol:
            raise BuildError(f"H transport residual {tr_res:.3e} exceeds {tol:.1e}")

    zero = Expression.const(0.0)
    return ProjectivePair(
        ("t", "z"),
        alpha0=[zero, E],
        alpha1=[D, F],
        phi0=[H, -beta],
        phi1=[zero, Expression.const(1.0)],
        c0=(1.0 / 3.0) * a1,
        c1=(2.0 / 3.0) * a2 + a3 * gamma,
    )


def _quadrature_residuals(H, G, E, F, points):
    """Max over the points (dicts over x, y, t, z) of |G_z - H|, and of
    the transport residuals |H_x + E H_z| and |H_y + F H_z|."""
    space = JetSpace(BASE + ("t", "z"), 1)
    env = space.seed(point_arrays(points))
    Hj = evaluate(H, env, space=space)
    Gj = evaluate(G, env, space=space)
    Ev = evaluate(E, env, space=space).value
    Fv = evaluate(F, env, space=space).value
    hx, hy, _, hz = np.moveaxis(Hj.gradient(), -1, 0)
    return (max_abs(Gj.gradient()[..., 3] - Hj.value),
            max_abs(hx + Ev * hz, hy + Fv * hz))


# -- gauge diagnostics --------------------------------------------------------


def gauge_reduction_report(pair: ProjectivePair, points, tol=1e-10):
    """Classify the gauge algebra generated by the pair's vertical fields.

    Flags (each decided by jet evaluation at the sample points):
      sdiff2          — every field is divergence-free for the flat fiber
                        area form dw1 ^ dw2;
      hdiff2          — divergences are fiber-independent (Hamiltonian up
                        to a central function);
      phi_sdiff       — the phi fields alone are divergence-free;
      o_times_diff1   — all components depend on the last fiber
                        coordinate only (fields of the form f(z)dt + g(z)dz);
      aff1_translational — o_times_diff1 holds, gauge fields are affine
                        in z, and phi is z-independent (translational).
    """
    coords = pair.coords
    nf = len(pair.fiber)
    space = JetSpace(coords, 3)
    env = space.seed(point_arrays(points))
    fields = list(pair.alpha) + list(pair.phi)
    zname = pair.fiber[-1]
    # per-point arrays whose largest magnitudes decide the flags
    div, phi_div, div_fiber_dep, t_dep, z_curv, phi_z_dep = ([] for _ in range(6))
    for fi, vec in enumerate(fields):
        comps = [evaluate(c, env, space=space) for c in vec]
        d = comps[0].derivative(pair.fiber[0])
        for j in range(1, nf):
            d = d + comps[j].derivative(pair.fiber[j])
        div.append(d.value)
        if fi >= 2:
            phi_div.append(d.value)
        grad = d.gradient()
        div_fiber_dep += [grad[..., j] for j, w in enumerate(coords)
                          if w in pair.fiber]
        for c in comps:
            if nf == 2:
                t_dep.append(c.derivative(pair.fiber[0]).value)
            if fi < 2:
                z_curv.append(c.derivative(zname).derivative(zname).value)
            else:
                phi_z_dep.append(c.derivative(zname).value)

    values = {
        "div_max": max_abs(*div),
        "div_fiber_dependence": max_abs(*div_fiber_dep),
        "phi_div_max": max_abs(*phi_div),
        "t_dependence": max_abs(*t_dep),
        "alpha_z_curvature": max_abs(*z_curv),
        "phi_z_dependence": max_abs(*phi_z_dep),
    }
    small = {k: v < tol for k, v in values.items()}
    flags = {
        "sdiff2": small["div_max"],
        "hdiff2": small["div_fiber_dependence"],
        "phi_sdiff": small["phi_div_max"],
        "o_times_diff1": small["t_dependence"],
        "aff1_translational": (small["t_dependence"]
                               and small["alpha_z_curvature"]
                               and small["phi_z_dependence"]),
    }
    return flags, values


def area_connection_curvature(pair: ProjectivePair, points):
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
    space = JetSpace(pair.coords, 2)
    env = space.seed(point_arrays(points))
    a0 = [evaluate(c, env, space=space) for c in pair.alpha[0]]
    a1 = [evaluate(c, env, space=space) for c in pair.alpha[1]]

    def div1(vec):
        # order-1 jet of the fiber divergence
        out = vec[0].derivative(pair.fiber[0])
        for j in range(1, nf):
            out = out + vec[j].derivative(pair.fiber[j])
        return out

    rho0, rho1 = div1(a0), div1(a1)
    # X(rho1) - Y(rho0): base derivative + vertical advection
    xr = rho1.gradient()[..., 0] + sum(
        a0[j].value * rho1.gradient()[..., 2 + j] for j in range(nf))
    yr = rho0.gradient()[..., 1] + sum(
        a1[j].value * rho0.gradient()[..., 2 + j] for j in range(nf))
    return max_abs(xr - yr, rho0.gradient()[..., 2:2 + nf],
                   rho1.gradient()[..., 2:2 + nf])
