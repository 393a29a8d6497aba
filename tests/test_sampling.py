"""Halton sampling with exclusion guards."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from sdconformal import expr
from sdconformal.cli import RunContext
from sdconformal.expr import (ExprDomainError, UnknownIdentifierError,
                              compile, jets_at, parse)
from sdconformal.jets import JetSpace
from sdconformal.sampling import (HALTON_BASES, SamplingError,
                                 halton_points, radical_inverse)
from oracles import point_rows

XY = ("x", "y")
BOX = {"x": [-1.0, 1.0], "y": [-0.5, 2.0]}
# log(y) is singular on part of the box, and 1/(x - y) on a line; a
# candidate that one guard rejects may make another raise
GUARDS = [("x", 0.1), ("log(y)", 0.2), ("x*y - 0.3", 0.05),
          ("1/(x - y)", 0.4), ("2", 1.0)]


def _exclusions(guards=GUARDS):
    return [(parse(src, XY), bound) for src, bound in guards]


def _reference(names, box, count, seed, exclusions):
    """The first `count` Halton candidates from index 1 + seed at which
    every guard, evaluated alone, is clear: |expression| > guard with no
    domain error."""
    space = JetSpace(names, 0)

    def clear(e, guard, pt):
        try:
            return abs(jets_at(e, space, pt).value) > guard
        except ExprDomainError:
            return False

    points, index = [], 1 + seed
    while len(points) < count:
        pt = {nm: box[nm][0] + (box[nm][1] - box[nm][0])
              * radical_inverse(index, HALTON_BASES[d])
              for d, nm in enumerate(names)}
        index += 1
        if all(clear(e, guard, pt) for e, guard in exclusions):
            points.append(pt)
    return points


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("guards", [GUARDS, GUARDS[1:2], GUARDS[3:]])
def test_guards_keep_the_same_points(seed, guards):
    exclusions = _exclusions(guards)
    got = halton_points(XY, BOX, 40, seed=seed, exclusions=exclusions)
    assert point_rows(got) == _reference(XY, BOX, 40, seed, exclusions)


def test_guards_are_compiled_once_per_call(monkeypatch):
    compiled = []

    def counting(exprs, space):
        compiled.append(len(exprs))
        return compile(exprs, space)

    monkeypatch.setattr(expr, "compile", counting)
    halton_points(XY, BOX, 40, seed=0, exclusions=_exclusions())
    halton_points(XY, BOX, 8, seed=3, exclusions=_exclusions())
    assert compiled == [len(GUARDS), len(GUARDS)]


def test_no_guards_seeds_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no guard to evaluate")

    monkeypatch.setattr(expr, "compile", forbidden)
    monkeypatch.setattr(JetSpace, "seed", forbidden)
    got = halton_points(XY, BOX, 16, seed=2, exclusions=())
    assert point_rows(got) == _reference(XY, BOX, 16, 2, [])


def test_a_guard_over_an_unsampled_variable_is_unassigned():
    with pytest.raises(UnknownIdentifierError, match=r"\['z'\]"):
        halton_points(XY, BOX, 4, seed=0,
                      exclusions=[(parse("z", XY + ("z",)), 0.1)])


@pytest.mark.parametrize("seed", [-1, -5])
def test_a_negative_seed_is_a_sampling_error(seed):
    # Halton index 1 + seed <= 0 has radical inverse 0 in every base: the
    # points would all sit on the box's lower corner
    with pytest.raises(SamplingError, match=f"^the seed must be at least "
                                            f"0, not {seed}$"):
        halton_points(XY, BOX, 3, seed=seed, exclusions=())


SCENES = Path(__file__).resolve().parents[1] / "scenes"
SAMPLED = sorted(path.stem for path in SCENES.glob("*.json"))


@pytest.mark.parametrize("count", [1, 32, 257])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", SAMPLED)
def test_scene_sample_sets_are_the_reference_points(name, seed, count):
    # the sample set a command draws, as columns, holds the points of the
    # reference loop bit for bit, over the surface and the scene's coords
    scene = json.loads((SCENES / f"{name}.json").read_text())
    box = scene["sampling"]["box"]
    args = argparse.Namespace(samples=count, seed=seed, tol=None)
    ctx = RunContext(scene, args)
    guards = [(parse(str(x["expr"]), tuple(box)), float(x["guard"]))
              for x in scene["sampling"].get("exclusions", [])]
    for names in dict.fromkeys([("x", "y"), tuple(scene["coords"])]):
        got = ctx.points(names)
        assert list(got) == list(names)
        assert all(v.dtype == float and v.shape == (count,)
                   for v in got.values())
        exclusions = [(e, g) for e, g in guards if e.free_vars <= set(names)]
        want = _reference(names, box, count, seed, exclusions)
        assert point_rows(got) == want
        for nm in names:
            column = np.array([p[nm] for p in want], dtype=float)
            assert got[nm].tobytes() == column.tobytes()
