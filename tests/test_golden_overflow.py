"""Byte-identity of the reports of overflowing pair frames.

`golden/overflow_flat.json` holds, for `flat.json` with one pair entry
replaced by an expression that overflows to inf at some sample points,
the exit code and the report (every `wall_time` removed) of each 4-D
command at 4 samples.  The jet pipeline forms inf * 0 = NaN terms from
such frames; a change to the frame inverse or the metric assembly may
form fewer of them, but it may not move a report or an exit code.
RuntimeWarnings are not pinned: their count may move.

As with `golden/reports.json`, the bits are those of the numpy build and
libm they were recorded with; on another machine regenerate the file
first, from a commit known to be good:

    PYTHONPATH=src python tests/test_golden_overflow.py
"""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from sdconformal.cli import main
from test_golden_reports import _strip_wall_time

SCENE = Path(__file__).resolve().parents[1] / "scenes" / "flat.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "overflow_flat.json"

COMMANDS = ("certify-selfdual", "curvature", "killing")
# (pair entry, component, expression)
MUTATIONS = (
    ("alpha0", 0, "1e300*1e300*x"),
    ("alpha1", 0, "1e200*x*y*w1*w2*1e200"),
    ("phi0", 1, "1e300*1e300*w1"),
)


def _mutated_scene(workdir, key, index, expression):
    scene = json.loads(SCENE.read_text())
    scene["pair"][key][index] = expression
    path = Path(workdir) / f"{key}_{index}.json"
    path.write_text(json.dumps(scene))
    return str(path)


def _key(mutation, command):
    key, index, _ = mutation
    return f"{key}[{index}]:{command}"


def _entries():
    return [(m, command) for m in MUTATIONS for command in COMMANDS]


def run_entry(workdir, mutation, command):
    """The exit code and the report without wall times of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, _mutated_scene(workdir, *mutation),
                     "--samples", "4"])
    text = out.getvalue()
    report = _strip_wall_time(json.loads(text)) if text.strip() else None
    return {"exit": code, "report": report}


GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_mutation_is_covered():
    assert set(GOLDEN_DATA) == {_key(m, c) for m, c in _entries()}


@pytest.mark.parametrize("mutation,command", _entries(),
                         ids=[_key(m, c) for m, c in _entries()])
def test_report_is_byte_identical(tmp_path, mutation, command):
    got = run_entry(tmp_path, mutation, command)
    # text comparison: exact for every float, and NaN equals NaN
    assert (json.dumps(got, sort_keys=True)
            == json.dumps(GOLDEN_DATA[_key(mutation, command)],
                          sort_keys=True))


def test_a_singular_phi_block_is_a_domain_error(tmp_path, capsys):
    scene = json.loads(SCENE.read_text())
    scene["pair"]["phi0"] = ["0", "0"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(scene))
    code = main(["killing", str(path), "--samples", "4"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.strip() == "domain error: singular jet matrix"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        data = {_key(m, c): run_entry(workdir, m, c) for m, c in _entries()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, sort_keys=True, separators=(",", ":"))
                      + "\n")
    sys.stderr.write(f"wrote {len(data)} entries to {GOLDEN}\n")
