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

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .expr import Expression, as_expression, jets_at
from .jets import JetSpace, max_abs

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
        if len(set(allowed + ("lambda",))) != len(allowed) + 1:
            raise ValueError(f"fiber {list(fiber)} repeats a name or uses "
                             "x, y or lambda")
        def vert(v):
            comps = tuple(as_expression(v, allowed))
            if len(comps) != len(self.fiber):
                raise ValueError("component count does not match fiber dimension")
            return comps
        self.alpha = (vert(alpha0), vert(alpha1))
        self.phi = (vert(phi0), vert(phi1))
        self.c_gauge = (as_expression(c0, BASE), as_expression(c1, BASE))

    @property
    def coords(self):
        return BASE + self.fiber


class LaxPair:
    """Two lam-dependent vector fields on base + fiber + lam."""

    def __init__(self, coords, L0, L1):
        self.coords = tuple(coords)  # includes "lambda" last
        self.L0 = {c: L0.get(c, Expression.const(0.0)) for c in self.coords}
        self.L1 = {c: L1.get(c, Expression.const(0.0)) for c in self.coords}

    def bracket_at(self, point):
        """Values of [L0, L1] and of L0 at a point dict over the
        coordinates (incl. lambda), whose values may be arrays, as arrays
        whose last axis runs over the coordinates."""
        uv = jets_at([[L[c] for c in self.coords] for L in (self.L0, self.L1)],
                     JetSpace(self.coords, 1), point)
        u, v = uv[..., 0, :], uv[..., 1, :]
        return lie_bracket(u, v), np.ascontiguousarray(u.value)


# Two bracket kernels on order-1 jets of vector fields, grouped differently
# and so different in the last bits: `lie_bracket` subtracts the matmul sums
# sum_j u^j d_j v^i and sum_j v^j d_j u^i (lax_residual, frobenius_residual);
# `ordered_bracket` adds the differences term by term in coordinate order
# (the pair and projective-field residuals).  Each keeps its callers' bits.

def lie_bracket(u, v):
    """Values of the bracket [U, V]^i = u^j d_j v^i - v^j d_j u^i, with
    the coordinate index last, from order-1 jets u and v whose last batch
    axis runs over the components U^i and V^i."""
    ug = np.ascontiguousarray(u.gradient())
    vg = np.ascontiguousarray(v.gradient())
    uv = np.ascontiguousarray(u.value)
    vv = np.ascontiguousarray(v.value)
    return (vg @ uv[..., None])[..., 0] - (ug @ vv[..., None])[..., 0]


def ordered_bracket(u, v, first=0):
    """Values of the bracket of U and V, given as for `lie_bracket`, with
    d_k the derivative in variable `first` + k: the sum over k, in k
    order from 0.0, of u^k d_k v^i - v^k d_k u^i, each term formed for
    all i at once."""
    uv, ug, vv, vg = u.value, u.gradient(), v.value, v.gradient()
    out = 0.0
    for k in range(uv.shape[-1]):
        out = out + (uv[..., k, None] * vg[..., first + k]
                     - vv[..., k, None] * ug[..., first + k])
    return out


def _lstsq_error(*_):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq(a, b):
    """Least-squares solutions x[...] of a[...] x = b[...] for stacks of
    systems a (..., M, N) and right-hand sides b (..., M, K), in one call
    of the gufunc behind `np.linalg.lstsq`, with its default rcond and
    error handling: each x is that function's solution to the last bit,
    and SVD non-convergence (NaN input) raises its LinAlgError.  A
    non-finite `a` raises that error without calling LAPACK, which would
    first print DLASCL complaints to stdout."""
    if not np.all(np.isfinite(a)):
        _lstsq_error()
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(a, b, np.finfo(float).eps * max(m, n),
                                         signature="ddd->ddid")
    return x


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


def lax_residual(lax: LaxPair, points, lambdas=DEFAULT_LAMBDAS):
    """Span-membership residual of [L0, L1] against L0.

    At each sample point and each lam the bracket is projected onto L0;
    the orthogonal remainder is the integrability residual.  The
    projection coefficients c(lam) are then fitted by least squares with
    a cubic in lam: the first three coefficients are the multiplier
    b0, b1, b2 and the cubic coefficient must vanish for a certified
    pair (it plays the role of the obstruction c2).  All points and all
    lam are evaluated at once.

    Returns arrays, point axes first: the orthogonal remainder's length
    at each lam ("residual"), the multiplier fits ("b_coeffs") and the
    cubic coefficient ("cubic").
    """
    lambdas = np.asarray(lambdas, dtype=float)
    vander = np.vander(lambdas, 4, increasing=True)
    state = {k: np.asarray(v)[..., None] for k, v in points.items()}
    state["lambda"] = lambdas   # axes: (point, lam)
    bracket, l0 = lax.bracket_at(state)
    norm2 = _dot(l0, l0)
    if np.any(norm2 < 1e-24):
        *n, k = np.argwhere(norm2 < 1e-24)[0]
        where = {name: float(np.asarray(v)[tuple(n)])
                 for name, v in points.items()}
        where["lambda"] = float(lambdas[k])
        raise np.linalg.LinAlgError(f"degenerate L0 at {where}")
    c = _dot(bracket, l0) / norm2
    perp = bracket - c[..., None] * l0
    # one multi-RHS fit; row-major like a stack of single-point fits
    fits = lstsq(vander, c.reshape(-1, len(lambdas)).T).T
    fits = np.ascontiguousarray(fits).reshape(c.shape[:-1] + (4,))
    return {
        "residual": np.sqrt(_dot(perp, perp)),
        "b_coeffs": fits[..., :3],
        "cubic": fits[..., 3],
    }


def projective_pair_residual(P, pair: ProjectivePair, points):
    """The residuals of the first-order system equivalent to Lax
    integrability (with multiplier b(lam) = c(lam) - a'(lam)/3):

      dx phi0 + [a0, phi0] + (c0 - 2/3 g0) phi0 + G^0_00 phi0 + G^1_00 phi1 = 0
      dx phi1 + [a0, phi1] + (c0 - 2/3 g0) phi1 + G^0_01 phi0 + G^1_01 phi1
        + dy phi0 + [a1, phi0] + (c1 - 2/3 g1) phi0 + G^0_10 phi0 + G^1_10 phi1 = 0
      dy phi1 + [a1, phi1] + (c1 - 2/3 g1) phi1 + G^0_11 phi0 + G^1_11 phi1 = 0

    where g0 = G^0_00 + G^1_01, g1 = G^0_10 + G^1_11 and the brackets are
    taken in the fiber variables only; point axes first, then equation
    and fiber component.
    """
    # gv[..., A, B, C, :] and cv[..., k, :]: a column of per-point values,
    # broadcast over the components i below
    gv = P.christoffel_jets(points, 0).value[..., None]
    cv = jets_at(pair.c_gauge, JetSpace(BASE, 0), points).value[..., None]
    g0 = gv[..., 0, 0, 0, :] + gv[..., 1, 0, 1, :]
    g1 = gv[..., 0, 1, 0, :] + gv[..., 1, 1, 1, :]
    c0, c1 = cv[..., 0, :], cv[..., 1, :]
    # order-1 jets of alpha0, alpha1, phi0, phi1, component i last; the
    # gradients run over x, y and then the fiber coordinates
    F = jets_at(pair.alpha + pair.phi, JetSpace(pair.coords, 1), points)
    a0, a1, f0, f1 = (F[..., k, :] for k in range(4))
    phi0v, phi1v = f0.value, f1.value
    eq1 = (f0.gradient()[..., 0] + ordered_bracket(a0, f0, 2)
           + (c0 - 2.0 / 3.0 * g0) * phi0v
           + gv[..., 0, 0, 0, :] * phi0v + gv[..., 1, 0, 0, :] * phi1v)
    eq2 = (f1.gradient()[..., 0] + ordered_bracket(a0, f1, 2)
           + (c0 - 2.0 / 3.0 * g0) * phi1v
           + gv[..., 0, 0, 1, :] * phi0v + gv[..., 1, 0, 1, :] * phi1v
           + f0.gradient()[..., 1] + ordered_bracket(a1, f0, 2)
           + (c1 - 2.0 / 3.0 * g1) * phi0v
           + gv[..., 0, 1, 0, :] * phi0v + gv[..., 1, 1, 0, :] * phi1v)
    eq3 = (f1.gradient()[..., 1] + ordered_bracket(a1, f1, 2)
           + (c1 - 2.0 / 3.0 * g1) * phi1v
           + gv[..., 0, 1, 1, :] * phi0v + gv[..., 1, 1, 1, :] * phi1v)
    return np.stack([eq1, eq2, eq3], axis=-2)


# -- constructive builders ----------------------------------------------------


def twist_free_normal_form(P, beta, points=None, tol=1e-8):
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
    pts = points if points is not None else {"x": 0.5, "y": 0.5}
    res = max_abs(P.congruence_residual(beta, pts))
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


def dw_quadrature_build(P, gamma, c_twist, H, G, points=None, tol=1e-8):
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
    beta = gamma + as_expression(c_twist, ()) * z
    a0, a1, a2, a3 = P.spray_coeffs()
    E = (a1 + gamma * a2 + gamma**2 * a3 - gamma.diff("y")) * z
    F = a3 * z * beta + (a2 + gamma * a3) * z
    D = -a3 * G

    pts = (points if points is not None
           else {"x": 0.5, "y": 0.5, "t": 0.0, "z": 0.3})
    res = max_abs(P.congruence_residual(gamma, pts))
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
    """Max over the sample set `points` (over x, y, t, z) of |G_z - H|, and of
    the transport residuals |H_x + E H_z| and |H_y + F H_z|."""
    jets = jets_at([H, G, E, F], JetSpace(BASE + ("t", "z"), 1), points)
    hv, _, ev, fv = np.moveaxis(jets.value, -1, 0)
    hx, hy, _, hz = np.moveaxis(jets.gradient()[..., 0, :], -1, 0)
    return (max_abs(jets.gradient()[..., 1, 3] - hv),
            max_abs(hx + ev * hz, hy + fv * hz))


# -- gauge diagnostics --------------------------------------------------------


def gauge_reduction_report(pair: ProjectivePair, points, tol=1e-10):
    """Classify the gauge algebra generated by the pair's vertical fields.

    Flags (each decided by jet evaluation at the sample points, and None,
    undecided, if decided from a non-finite value):
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
    # fields[n, k, i]: component i of alpha0, alpha1, phi0, phi1 (k)
    # order 2: the deepest reads are div.gradient() and dz.derivative(...)
    fields = jets_at(pair.alpha + pair.phi, JetSpace(pair.coords, 2), points)
    div = _fiber_divergence(fields, pair.fiber)
    dz = fields.derivative(pair.fiber[-1])
    values = {
        "div_max": max_abs(div.value),
        "div_fiber_dependence": max_abs(div.gradient()[..., len(BASE):]),
        "phi_div_max": max_abs(div.value[..., 2:]),
        "t_dependence": (max_abs(fields.derivative(pair.fiber[0]).value)
                         if len(pair.fiber) == 2 else 0.0),
        "alpha_z_curvature": max_abs(
            dz.derivative(pair.fiber[-1]).value[..., :2, :]),
        "phi_z_dependence": max_abs(dz.value[..., 2:, :]),
    }
    flags = {
        "sdiff2": below(tol, values["div_max"]),
        "hdiff2": below(tol, values["div_fiber_dependence"]),
        "phi_sdiff": below(tol, values["phi_div_max"]),
        "o_times_diff1": below(tol, values["t_dependence"]),
        "aff1_translational": below(tol, values["t_dependence"],
                                    values["alpha_z_curvature"],
                                    values["phi_z_dependence"]),
    }
    return flags, values


def below(tol, *values):
    """Whether every value is below `tol`; None (undecided) if any is not
    finite, as NaN < tol is False and would decide a flag either way."""
    if not all(math.isfinite(v) for v in values):
        return None
    return all(v < tol for v in values)


def _fiber_divergence(fields, fiber):
    """The jet, one order lower, of the fiber divergence sum_j d_wj V^j of
    each vertical field V: the last batch axis of `fields` runs over the
    components V^j, and the sum is taken in component order."""
    out = fields.derivative(fiber[0])[..., 0]
    for j in range(1, len(fiber)):
        out = out + fields.derivative(fiber[j])[..., j]
    return out
