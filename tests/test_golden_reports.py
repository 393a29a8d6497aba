"""Byte-identity of the reports of the checked-in scenes.

`golden/reports.json` holds, for the natural commands of every scene in
`scenes/` (plus `batch`) at three sample settings, the exit code and the
report with every `wall_time` removed.  Each run must reproduce its
entry exactly: refactors of the jet pipeline may not move a single bit.

The bits are specific to the numpy build and the C library's libm they
were recorded with; on another machine regenerate the file first, from a
commit known to be good:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sdconformal.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENES = ROOT / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"

# The natural commands of the checked-in scenes (as in bench/scenes.py).
NATURAL = (
    ("flat", ("verify-lax", "verify-pair", "certify-selfdual", "curvature",
              "killing", "frobenius", "congruence", "gauge-report")),
    ("nullkahler_hk", ("certify-selfdual", "curvature", "killing")),
    ("nullkahler_random", ("build-nullkahler",)),
    ("twistfree", ("build-twistfree",)),
    ("dw_twist", ("build-dw",)),
    ("burgers", ("congruence", "projective-field")),
    ("divisor2_roots", ("divisor2",)),
    ("divisor2_trivial", ("divisor2",)),
    ("projective_field", ("projective-field",)),
    ("ward", ("ward",)),
    ("batch", ("batch",)),
)
SETTINGS = {
    "defaults": [],
    "samples40-seed3": ["--samples", "40", "--seed", "3"],
    "samples64": ["--samples", "64"],
}


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def run_entry(scene, command, setting):
    """The exit code and the report without wall times of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(SCENES / f"{scene}.json")]
                    + SETTINGS[setting])
    text = out.getvalue()
    report = _strip_wall_time(json.loads(text)) if text.strip() else None
    return {"exit": code, "report": report}


def _key(scene, command, setting):
    return f"{scene}:{command}:{setting}"


def _entries():
    return [(scene, command, setting) for scene, commands in NATURAL
            for command in commands for setting in SETTINGS]


def _canonical(obj):
    # text comparison: exact for every float, and NaN equals NaN
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_checked_in_scene_is_covered(golden):
    scenes = {p.stem for p in SCENES.glob("*.json")}
    assert scenes == {scene for scene, _ in NATURAL}
    assert set(golden) == {_key(*e) for e in _entries()}


@pytest.mark.parametrize("scene,command,setting", _entries(),
                         ids=[_key(*e) for e in _entries()])
def test_report_is_byte_identical(golden, scene, command, setting):
    got = run_entry(scene, command, setting)
    assert _canonical(got) == _canonical(golden[_key(scene, command,
                                                     setting)])


if __name__ == "__main__":
    data = {_key(*e): run_entry(*e) for e in _entries()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, sort_keys=True, separators=(",", ":"))
                      + "\n")
    sys.stderr.write(f"wrote {len(data)} entries to {GOLDEN}\n")
