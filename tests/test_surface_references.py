"""The stacked surface tensors against the nested-list forms they replaced.

`ProjectiveSurface.curvature_endomorphism`, `ricci` and
`minitwistor._weyl_gamma_jets` work on one jet with the point axes first
and the index axes last; `tests/oracles.py` keeps their former nested-list
forms.  Both must give the same bits at every entry, the sign of a zero
included, and NaN at the same entries, on finite and non-finite data.
"""
import numpy as np
import pytest

from sdconformal.expr import parse
from sdconformal.jets import Jet, JetSpace
from sdconformal.minitwistor import WeightedCongruence, _weyl_gamma_jets
from sdconformal.projective import COORDS, ProjectiveSurface
from oracles import (reference_curvature_endomorphism, reference_ricci,
                     reference_weyl_gamma_jets, unstack)

BATCHES = [(), (5,), (2, 3)]
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _sprinkle(rng, values, rate):
    """`values` with about `rate` of its entries replaced by ±0, ±inf or
    NaN."""
    values = np.array(values, dtype=float)
    where = rng.random(values.shape) < rate
    values[where] = rng.choice(SPECIAL, size=int(where.sum()))
    return values[()]


def _polynomial(rng, degree=2):
    terms = [f"{rng.uniform(-1, 1):+.6f}*x^{i}*y^{j}"
             for i in range(degree + 1) for j in range(degree + 1 - i)]
    return parse("".join(terms).lstrip("+"), COORDS)


def _random_surface(rng):
    # about one symbol in four is left out, so zero entries occur too
    return ProjectiveSurface({key: _polynomial(rng)
                              for key in [(0, 0, 0), (0, 0, 1), (0, 1, 1),
                                          (1, 0, 0), (1, 0, 1), (1, 1, 1)]
                              if rng.random() < 0.75})


class _GivenChristoffels(ProjectiveSurface):
    """A surface whose Christoffel jets at any point are given order-3
    coefficients [..., A, B, C, slot], truncated to the order asked for."""

    def __init__(self, coeffs):
        super().__init__({})
        self.coeffs = coeffs

    def christoffel_jets(self, point, order):
        space = JetSpace(COORDS, order)
        return Jet(space, self.coeffs[..., :len(space)])


def _surface(rng, source, batch):
    if source == "polynomial":
        return _random_surface(rng)
    shape = batch + (2, 2, 2, len(JetSpace(COORDS, 3)))
    return _GivenChristoffels(_sprinkle(rng, rng.standard_normal(shape),
                                        0.03))


def _points(rng, batch):
    """A sample set of the batch shape, a tenth of its coordinates ±0,
    ±inf or NaN."""
    return {name: _sprinkle(rng, rng.uniform(-1.0, 1.0, batch), 0.1)
            for name in COORDS}


def _same(a, b):
    """The same shape, NaN at the same entries and the same bits at the
    others."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _nested(entries, depth):
    """The coefficients of a nested list of jets, `depth` levels deep,
    indices last: the layout of the stacked forms."""
    if depth == 0:
        return entries.coeffs
    return np.stack([_nested(e, depth - 1) for e in entries],
                    axis=-1 - depth)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("source", ["polynomial", "given"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("batch", BATCHES)
def test_curvature_and_ricci_match_the_nested_forms(batch, order, source):
    rng = np.random.default_rng([len(batch), sum(batch), order,
                                 len(source)])
    for _ in range(4):
        P = _surface(rng, source, batch)
        points = _points(rng, batch)
        R = P.curvature_endomorphism(points, order)
        r = P.ricci(points, order)
        assert R.space is r.space is JetSpace(COORDS, order - 1)
        want_R = reference_curvature_endomorphism(P, points, order)
        want_r = reference_ricci(P, points, order)
        assert _same(R.coeffs, _nested(want_R, 2))
        assert _same(r.coeffs, _nested(want_r, 2))
        # an entry read back from the stacked jet is the nested entry
        assert _same(unstack(r, 2)[0][1].coeffs, want_r[0][1].coeffs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("source", ["polynomial", "given"])
@pytest.mark.parametrize("batch", BATCHES)
def test_weyl_gamma_jets_match_the_nested_form(batch, source):
    rng = np.random.default_rng([len(batch), sum(batch), len(source), 7])
    for _ in range(4):
        P = _surface(rng, source, batch)
        congs = [WeightedCongruence([_polynomial(rng) for _ in range(2)],
                                    [_polynomial(rng) for _ in range(2)])
                 for _ in range(2)]
        points = _points(rng, batch)
        gam, ct, consistency = _weyl_gamma_jets(P, *congs, points)
        want_gam, want_ct, want_consistency = reference_weyl_gamma_jets(
            P, *congs, points)
        assert gam.space is ct.space is JetSpace(COORDS, 1)
        assert _same(gam.coeffs, _nested(want_gam, 1))
        assert _same(ct.coeffs, _nested(want_ct, 2))
        assert _same(consistency, want_consistency)
