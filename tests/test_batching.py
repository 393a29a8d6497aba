"""Batched evaluation over sample points agrees with single-point calls.

The 4-D pipelines evaluate every expression once per sweep on jets with a
leading point axis.  Each value they report must be the one a loop of
single-point calls gives: to 1e-14 relative (1e-15 absolute near zero)
for the curvature, Killing and Lax reports, and bit for bit for the jet
kernel itself.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdconformal.conformal import (MetricBuilder, build_null_kahler,
                                   curvature_report, frame_values,
                                   killing_report)
from sdconformal.jets import Jet, JetSpace, point_arrays
from sdconformal.pairs import (ProjectivePair, build_lax, dw_quadrature_build,
                               lax_residual)
from sdconformal.projective import ProjectiveSurface
from sdconformal.sampling import halton_points

SCENES = Path(__file__).resolve().parents[1] / "scenes"
FLAT = ProjectiveSurface.flat()
T_TRANSLATION = ("0", "0", "1", "0")


def _box(scene):
    return json.loads((SCENES / f"{scene}.json").read_text())["sampling"]["box"]


def _null_kahler(a, c, f, box):
    nk = build_null_kahler(a, c, f)
    return nk["surface"], nk["pair"], f, box, nk["check"]


def _seeded_null_kahler(seed=11):
    rng = random.Random(seed)
    r = [f"{rng.uniform(-0.4, 0.4):.4f}" for _ in range(5)]
    return _null_kahler(f"{r[0]}*x + {r[1]}*y", f"{r[2]}*x - {r[3]}*y",
                        f"1 + {r[4]}*x*z", _box("nullkahler_random"))


def _cases():
    """name -> (surface, pair, conformal factor, sampling box, structure check)."""
    hk_pair = ProjectivePair(("t", "z"), alpha0=["0.4*x*z", "0"],
                             alpha1=["0", "0"], phi0=["0", "1"],
                             phi1=["1", "0"])
    # the w1-column pivot of the frame solve is phi1 for |y| > 1, phi0 below
    pivot_pair = ProjectivePair(("w1", "w2"), alpha0=["0.3*w2", "0"],
                                alpha1=["0", "0.2*w1"], phi0=["1", "0.3"],
                                phi1=["y", "1"])
    return {
        "flat": (FLAT, ProjectivePair.trivial(), None, _box("flat"), None),
        "nullkahler_hk": (ProjectiveSurface({(1, 0, 0): "0.4*x"}), hk_pair,
                          "1/z^2", _box("nullkahler_hk"), None),
        "nullkahler_random": _null_kahler("0.3*x + 0.1*y", "0.2*x - 0.4*y",
                                          "1 + 0.25*x*z",
                                          _box("nullkahler_random")),
        "dw_twist": (FLAT, dw_quadrature_build(FLAT, "y/x", 0.7, "1", "z",
                                               check=False),
                     None, _box("dw_twist"), None),
        "nullkahler_seeded": _seeded_null_kahler(),
        "pivot_change": (FLAT, pivot_pair, "1 + 0.1*x*w2",
                         {"x": [-1, 1], "y": [0.2, 2.0], "w1": [-1, 1],
                          "w2": [-1, 1]}, None),
    }


CASES = _cases()


def _points(name, count=24):
    _, pair, _, box, _ = CASES[name]
    return halton_points(pair.coords, box, count, seed=3)


def _assert_close(batched, single):
    batched = np.asarray(batched, dtype=float)
    single = np.asarray(single, dtype=float)
    assert batched.shape == single.shape
    bound = np.maximum(1e-14 * np.abs(single), 1e-15)
    assert np.all(np.abs(batched - single) <= bound), (batched, single)


@pytest.mark.parametrize("name", sorted(CASES))
def test_curvature_report_matches_single_points(name):
    _, pair, factor, _, _ = CASES[name]
    builder = MetricBuilder(pair=pair, factor=factor)
    points = _points(name)
    pt = point_arrays(points)
    batched = curvature_report(builder.jets(pt), builder.coords,
                               builder.orientation(pt))
    singles = [curvature_report(builder.jets(p), builder.coords,
                                builder.orientation(p)) for p in points]
    for key, values in batched.items():
        values = np.broadcast_to(values, (len(points),))
        want = [s[key] for s in singles]
        if key == "signature_ok":
            assert values.tolist() == want
        else:
            _assert_close(values, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_killing_report_matches_single_points(name):
    _, pair, factor, _, _ = CASES[name]
    builder = MetricBuilder(pair=pair, factor=factor)
    points = _points(name)
    batched = killing_report(builder, T_TRANSLATION, points)
    singles = [killing_report(builder, T_TRANSLATION, [p]) for p in points]
    _assert_close(batched["twist"], [s["twist"][0] for s in singles])
    for key in ("exact_killing", "conformal_killing", "null_defect",
                "geodesic", "twist_max"):
        _assert_close(batched[key], max(s[key] for s in singles))


@pytest.mark.parametrize("name", sorted(CASES))
def test_lax_residual_matches_single_points(name):
    P, pair, _, _, _ = CASES[name]
    lax = build_lax(P, pair)
    points = _points(name)
    batched = lax_residual(lax, points)
    singles = [lax_residual(lax, [p]) for p in points]
    _assert_close(batched["b_coeffs"], [s["b_coeffs"][0] for s in singles])
    for key in ("residual", "cubic_max"):
        _assert_close(batched[key], max(s[key] for s in singles))


@pytest.mark.parametrize("name", ["nullkahler_random", "nullkahler_seeded"])
def test_null_kahler_check_matches_single_points(name):
    check = CASES[name][4]
    points = _points(name)
    batched = check(points)
    singles = [check([p]) for p in points]
    for key, value in batched.items():
        _assert_close(value, max(s[key] for s in singles))


def test_pivot_row_changes_across_the_box():
    _, pair, _, _, _ = CASES["pivot_change"]
    builder = MetricBuilder(pair=pair)
    frames = [frame_values(builder, p) for p in _points("pivot_change")]
    # rows 0 and 1 are phi0 and phi1; column 2 is their w1 component
    larger = {abs(M[1][2]) > abs(M[0][2]) for M in frames}
    assert larger == {True, False}


# -- the jet kernel ----------------------------------------------------------


@st.composite
def _batched_operands(draw):
    nvars = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.integers(min_value=0, max_value=3))
    space = JetSpace(tuple("abcde"[:nvars]), order)
    npts = draw(st.integers(min_value=1, max_value=5))
    size = npts * len(space)
    coeff = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
    a = np.array(draw(st.lists(coeff, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(coeff, min_size=size, max_size=size)))
    a = a.reshape(npts, len(space))
    b = b.reshape(npts, len(space))
    # constant terms away from zero, so that reciprocal is defined
    a[:, 0] = np.where(np.abs(a[:, 0]) < 0.5, 0.5, a[:, 0])
    return space, a, b, draw(st.sampled_from(("product", "reciprocal", "exp")))


def _apply(op, x, y):
    if op == "product":
        return x * y
    return getattr(x, op)()


@settings(max_examples=150, deadline=None)
@given(_batched_operands())
def test_batched_jet_ops_equal_single_points_bitwise(operands):
    space, a, b, op = operands
    batched = _apply(op, Jet(space, a), Jet(space, b)).coeffs
    for n in range(len(a)):
        single = _apply(op, Jet(space, a[n]), Jet(space, b[n])).coeffs
        assert single.shape == (len(space),)
        assert np.array_equal(batched[n], single)
