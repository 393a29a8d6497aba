"""Every single mutation of a checked-in scene, and every pair of them
that edits a pair entry or the conformal factor, ends cleanly.

A derandomised hypothesis search edits one thing in a checked-in scene
(all but `batch.json`) and runs one of the scene's natural commands on
it in-process at `--samples 2`.  Whatever the edit, the run exits 0-3
with no traceback and at most one line on stderr, RuntimeWarnings are
the only warnings, exit 0 means every check value is finite, and exit 1
means some verdict is false.

Half the edits replace one entry of a pair's frame (`phi0`, `phi1`,
`alpha0`, `alpha1`) or its conformal factor with a singular or
overflowing expression or a non-finite number: that is the frame and
metric path of the 4-D commands.  The rest drop a key, empty a
container, shorten or lengthen a list, or swap a value anywhere in the
scene, except the ward `length` and `step`, whose ratio sets the number
of integration steps.  The double mutations edit a pair entry or the
factor first, then a second one or anything anywhere.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdconformal.cli import main
from test_golden_reports import NATURAL

SCENES = Path(__file__).resolve().parents[1] / "scenes"
SCENE_DATA = {name: json.loads((SCENES / f"{name}.json").read_text())
              for name, _ in NATURAL if name != "batch"}
COMMANDS = {name: commands for name, commands in NATURAL
            if name in SCENE_DATA}
PAIR_SCENES = sorted(name for name, scene in SCENE_DATA.items()
                     if "pair" in scene)
PAIR_KEYS = ("phi0", "phi1", "alpha0", "alpha1")

# expressions in one coordinate v: singular somewhere or at every point,
# or overflowing to inf at some sample points
EXPRESSIONS = ("0", "1/({v} - {v})", "1/{v}", "log({v})", "sqrt(-1 - {v}^2)",
               "1e300*1e300*{v}", "1e308*{v}*{v}*{v}", "1e200*{v}*1e200",
               "exp(800*{v})", "(1e200*{v})^2 - (1e200*{v})^2 + 1")
NUMBERS = (math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, -1.0)
FROZEN = (("ward", "length"), ("ward", "step"))


def _value(data, scene, junk=()):
    """A singular expression in one of the scene's coordinates, a
    non-finite or extreme number, or one of `junk`."""
    kind = data.draw(st.sampled_from(["expression", "number"]
                                     + (["junk"] if junk else [])))
    if kind == "number":
        return data.draw(st.sampled_from(NUMBERS))
    if kind == "junk":
        return data.draw(st.sampled_from(junk))
    template = data.draw(st.sampled_from(EXPRESSIONS))
    return template.format(v=data.draw(st.sampled_from(scene["coords"])))


def _mutate_pair(scene, data):
    """Replace one frame entry, or the conformal factor, in place."""
    pair = scene["pair"]
    key = data.draw(st.sampled_from(PAIR_KEYS + ("factor",)))
    value = _value(data, scene)
    if key == "factor":
        scene["factor"] = value
    else:
        pair[key][data.draw(st.integers(0, len(pair[key]) - 1))] = value


def _paths(node, path=()):
    """Paths to every value inside `node`, except the frozen ones."""
    if path in FROZEN:
        return
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _paths(value, path + (key,))


def _mutate_anywhere(scene, data):
    """One structural edit or value swap somewhere in `scene`, in place."""
    path = data.draw(st.sampled_from(list(_paths(scene))[1:]))
    parent = scene
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    op = data.draw(st.sampled_from(["drop", "empty", "shrink", "grow",
                                    "swap"]))
    frozen = any(p[:len(path)] == path for p in FROZEN)
    if op == "drop" and isinstance(parent, dict) and not frozen:
        del parent[path[-1]]
    elif op == "empty" and isinstance(node, (dict, list)) and not frozen:
        node.clear()
    elif op == "shrink" and isinstance(node, list) and node:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    elif op == "grow" and isinstance(node, list):
        node.append(copy.deepcopy(node[0]) if node else _value(data, scene))
    elif not frozen:
        parent[path[-1]] = _value(data, scene, junk=("", "x +", [], {}))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(command, path):
    """Exit code, stdout, stderr and the warnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), "--samples", "2"])
    return code, out.getvalue(), err.getvalue(), caught


def _run_ends_in_one_line(workdir, data, name, scene):
    """Run one of the natural commands of scene `name` on the mutated
    `scene` and check the contract of the module docstring."""
    command = data.draw(st.sampled_from(COMMANDS[name]))
    path = workdir / "mutated.json"
    path.write_text(json.dumps(scene))

    code, out, err, caught = _run(command, path)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    assert all(issubclass(w.category, RuntimeWarning) for w in caught)
    if code in (0, 1):
        report = json.loads(out)
        values = [c["value"] for c in report["checks"]]
        verdicts = [c["verdict"] for c in report["checks"]]
        if code == 0:
            assert all(math.isfinite(v) for v in values)
        else:
            assert not all(verdicts)
    else:
        assert out == "" and len(err.splitlines()) == 1


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_single_mutations_end_in_one_line(workdir, data):
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(PAIR_SCENES))
        scene = copy.deepcopy(SCENE_DATA[name])
        _mutate_pair(scene, data)
    else:
        name = data.draw(st.sampled_from(sorted(SCENE_DATA)))
        scene = copy.deepcopy(SCENE_DATA[name])
        _mutate_anywhere(scene, data)
    _run_ends_in_one_line(workdir, data, name, scene)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_double_mutations_end_in_one_line(workdir, data):
    # a pair entry or the factor, and then a second pair entry, the
    # factor, or any edit anywhere: two singular fields, or a singular
    # field in a structurally broken scene, still name one error
    name = data.draw(st.sampled_from(PAIR_SCENES))
    scene = copy.deepcopy(SCENE_DATA[name])
    _mutate_pair(scene, data)
    if data.draw(st.booleans()):
        _mutate_pair(scene, data)
    else:
        _mutate_anywhere(scene, data)
    _run_ends_in_one_line(workdir, data, name, scene)
