"""Byte-identity of what the command line does, run by run.

`record` runs `cli.main` in this interpreter as a process of its own
would, and returns the exit code (or the exception that left `main`),
the stderr, and the report (from stdout or the `--out` file) less every
`wall_time`.  In stderr the work directory and the checkout's path
become placeholders and a warning's line number is dropped, so a source
line that only moved is no difference.  `runs` lists every pinned run,
and `golden/runs.jsonl` holds one record of each a line, keyed by its
normalised argv, so adding a run renumbers none:

* the natural commands of every checked-in scene, read where it is
  checked in, at three sample settings (`NATURAL` x `SETTINGS`);
* the 4-D metric commands on `flat.json` with a pair entry that
  overflows to inf at some sample points (`MUTATIONS`);
* `divisor2` on `divisor2_roots.json` with a Christoffel or rho entry
  whose derivatives overflow at some sample points while its values stay
  finite (`DIVISOR2_MUTATIONS`), at 3 and 17 samples;
* every checked-in scene and every scene of `EDITS` under every command
  at 3 and 17 samples, and the explicit `METRICS` in both orientations
  under the 4-D metric commands;
* the benchmark jobs of seeds 0-3 of every workload; the negative
  controls of `certify4d` have residuals that are not near 0, so a moved
  low bit of a nonzero residual shows.

Each run must reproduce its record exactly.  A change that should move
no report leaves `golden/` untouched; one that should move some
regenerates the file, and `git diff tests/golden` shows what moved.  The
bits are those of the numpy build and libm they were recorded with; on
another machine regenerate first, from a commit known to be good:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest

from sdconformal import cli

ROOT = Path(__file__).resolve().parents[1]
SCENES = ROOT / "scenes"
GOLDEN = Path(__file__).resolve().parent / "golden" / "runs.jsonl"


def bench_module(name):
    """`bench/<name>.py` as a module, imported without writing bytecode
    into `bench/`."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


BENCH_SCENES = bench_module("scenes")
# check.py imports `scenes`, which bench/worker.py puts on the path
with mock.patch.dict(sys.modules, {"scenes": BENCH_SCENES}):
    BENCH_CHECK = bench_module("check")


def _without_wall_time(report):
    if isinstance(report, dict):
        return {k: _without_wall_time(v) for k, v in report.items()
                if k != "wall_time"}
    if isinstance(report, list):
        return [_without_wall_time(v) for v in report]
    return report


def _normalise(text, work):
    # the longer path first, as either may hold the other
    for path, name in sorted([(str(work), "<work>"), (str(ROOT), "<tree>")],
                             key=lambda pair: len(pair[0]), reverse=True):
        text = text.replace(path, name)
    return text


def normalise_stderr(text, work):
    return re.sub(r"(\.py):\d+: (\w+Warning)", r"\1:<line>: \2",
                  _normalise(text, work))


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # as a plain interpreter shows a warning; pytest records them instead
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def record(argv, work):
    """Run `argv` through `cli.main` and return the run's record: its
    normalised argv, exit code, stderr and report less `wall_time`."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    # a fresh warnings registry a run: each warning shows once a run, as
    # it does in a process of its own
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a traceback is an outcome too
            code = f"raised {exc!r}"
    text = stdout.getvalue()
    if out is not None and out.exists():
        text = out.read_text()
        out.unlink()
    return {
        "argv": [_normalise(a, work) for a in argv],
        "exit": code,
        "stderr": normalise_stderr(stderr.getvalue(), work),
        "report": _without_wall_time(json.loads(text)) if text else None,
    }


def _same(a, b):
    # text comparison: exact for every float, and NaN equals NaN
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _write_edited(work, name, scene, slot, value, indent=None):
    """Write `scene` with the entry at the key path `slot` set to `value`
    as `work/name.json`.  The report's digest hashes these bytes."""
    data = json.loads((SCENES / f"{scene}.json").read_text())
    *parents, last = slot
    entry = data
    for key in parents:
        entry = entry[key]
    entry[last] = value
    path = Path(work) / f"{name}.json"
    path.write_text(json.dumps(data, indent=indent))
    return str(path)


# The natural commands of the checked-in scenes: `CHECKED_IN` of
# bench/scenes.py, with nullkahler_ricciflat and batch.
NATURAL = (
    ("flat", ("verify-lax", "verify-pair", "certify-selfdual", "curvature",
              "killing", "frobenius", "congruence", "gauge-report")),
    ("nullkahler_hk", ("certify-selfdual", "curvature", "killing")),
    ("nullkahler_random", ("build-nullkahler",)),
    ("nullkahler_ricciflat", ("certify-selfdual", "curvature",
                              "build-nullkahler")),
    ("twistfree", ("build-twistfree",)),
    ("dw_twist", ("build-dw",)),
    ("burgers", ("congruence", "projective-field")),
    ("divisor2_roots", ("divisor2",)),
    ("divisor2_trivial", ("divisor2",)),
    ("projective_field", ("projective-field",)),
    ("ward", ("ward",)),
    ("batch", ("batch",)),
)
SETTINGS = ([], ["--samples", "40", "--seed", "3"], ["--samples", "64"])

METRIC_COMMANDS = ("certify-selfdual", "curvature", "killing")
# (pair entry, component, expression)
MUTATIONS = (
    ("alpha0", 0, "1e300*1e300*x"),
    ("alpha1", 0, "1e200*x*y*w1*w2*1e200"),
    ("phi0", 1, "1e300*1e300*w1"),
)

# (name, key path into divisor2_roots.json, expression): a Christoffel
# whose first derivative overflows, a rho component whose first
# derivative overflows, and one whose second derivative does.
DIVISOR2_MUTATIONS = (
    ("divisor2-christoffel", ("projective", "spray", 0), "1e299*sin(1e10*y)"),
    ("divisor2-rho", ("divisor2", 0, "rho", 1), "1e299*sin(1e10*x)"),
    ("divisor2-rho-second", ("divisor2", 0, "rho", 1), "1e299*sin(1e5*x)"),
)

SAMPLES = (3, 17)
# The explicit metrics, over flat.json's coordinates (x, y, w1, w2): the
# split-signature dx.dw2 - dy.dw1, two Walker metrics and one whose first
# entry overflows to inf at every sample point with |x| > 1e-154.
METRICS = {
    "flat": [["0", "0", "0", "1"], ["0", "0", "-1", "0"],
             ["0", "-1", "0", "0"], ["1", "0", "0", "0"]],
    "curved": [["y*w2", "0", "0", "1"], ["0", "x*w1", "-1", "0"],
               ["0", "-1", "0", "0"], ["1", "0", "0", "0"]],
    "transcendental": [["sin(x*w2)", "0", "0", "exp(y)"],
                       ["0", "cos(w1)", "-1", "0"],
                       ["0", "-1", "0", "0"], ["exp(y)", "0", "0", "0"]],
    "overflow": [["1e308*x*x", "0", "0", "1"], ["0", "0", "-1", "0"],
                 ["0", "-1", "0", "0"], ["1", "0", "0", "0"]],
}
# Edits of the checked-in scenes that reach code no other run reaches:
# the geodesic's |lambda| > 1 chart, a last RK4 step shorter than the
# others, and `Jet.log`.
EDITS = {
    "ward-chart2": ("ward", ("ward", "start"), [0.0, 0.0, 2.0]),
    "ward-remainder": ("ward", ("ward", "length"), 1.005),
    "flat-log": ("flat", ("pair", "alpha0"), ["log(2 + x)", "0"]),
}


def runs(work):
    """{normalised argv: argv} of every pinned run; the scenes it copies
    or edits are written into the directory `work`."""
    runs = [[command, str(SCENES / f"{scene}.json"), *setting]
            for scene, commands in NATURAL for command in commands
            for setting in SETTINGS]
    runs += [[command, _write_edited(work, f"{key}_{index}", "flat",
                                     ("pair", key, index), expression),
              "--samples", "4"]
             for key, index, expression in MUTATIONS
             for command in METRIC_COMMANDS]
    runs += [["divisor2", _write_edited(work, name, "divisor2_roots", slot,
                                        expression), "--samples", str(n)]
             for name, slot, expression in DIVISOR2_MUTATIONS
             for n in SAMPLES]
    scenes = work / "scenes"
    scenes.mkdir()
    for path in SCENES.glob("*.json"):
        (scenes / path.name).write_bytes(path.read_bytes())
    for name, edit in EDITS.items():
        _write_edited(scenes, name, *edit)
    runs += [[command, str(path), "--samples", str(n)]
             for path in sorted(scenes.iterdir()) for command in cli.COMMANDS
             for n in SAMPLES]
    for label, components in METRICS.items():
        for suffix, extra in (("", {}), ("-reversed", {"orientation": -1})):
            metric = {**extra, "components": components}
            path = _write_edited(work, f"metric-{label}{suffix}", "flat",
                                 ("metric",), metric, indent=1)
            runs += [[command, path, "--samples", str(n)]
                     for command in METRIC_COMMANDS for n in SAMPLES]
    for workload in BENCH_SCENES.WORKLOADS:
        for seed in range(4):
            outdir = work / "bench" / f"{workload}-{seed}"
            jobs = BENCH_SCENES.jobs_for(workload, seed, outdir / "scenes",
                                         SCENES)
            runs += [job.argv(outdir / "report.json") for job in jobs]
    return {" ".join(_normalise(a, work) for a in argv): argv
            for argv in runs}


def record_runs(work):
    """{key: record} of every run, its scenes written into `work`."""
    return {key: record(argv, work) for key, argv in runs(work).items()}


# {key: record}; empty before the regenerate entry first writes the file
GOLDEN_DATA = ({" ".join(r["argv"]): r
                for r in map(json.loads, GOLDEN.read_text().splitlines())}
               if GOLDEN.exists() else {})


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record_runs(tmp_path_factory.mktemp("runs"))


@pytest.mark.parametrize("key", sorted(GOLDEN_DATA))
def test_run_is_byte_identical(recorded, key):
    assert _same(recorded[key], GOLDEN_DATA[key])


def test_every_run_is_pinned(recorded):
    assert set(recorded) == set(GOLDEN_DATA)


def test_the_golden_file_is_the_only_one():
    # a stale golden file that no test reads would pin nothing
    assert list(GOLDEN.parent.iterdir()) == [GOLDEN]


def test_every_checked_in_scene_is_covered():
    scenes = {p.stem for p in SCENES.glob("*.json")}
    assert scenes == {scene for scene, _ in NATURAL}


def test_the_certify4d_workload_is_covered():
    seed0 = [r for key, r in GOLDEN_DATA.items()
             if "<work>/bench/certify4d-0/scenes/" in key]
    assert len(seed0) == 20
    # the negative controls have residuals that are not near 0
    assert {r["exit"] for r in seed0} == {0, 1}


CERTIFY4D_SEED0 = sorted(key for key in GOLDEN_DATA
                         if "<work>/bench/certify4d-0/scenes/" in key)


@pytest.fixture(scope="module")
def certify4d_problems(recorded, tmp_path_factory):
    """{key: the bench checker's problems} of each seed-0 `certify4d` job,
    judged in job order, so each negative control meets its partner."""
    work = tmp_path_factory.mktemp("certify4d")
    outdir = work / "bench" / "certify4d-0"
    checker = BENCH_CHECK.Checker()
    problems = {}
    for job in BENCH_SCENES.jobs_for("certify4d", 0, outdir / "scenes",
                                     SCENES):
        key = " ".join(_normalise(a, work)
                       for a in job.argv(outdir / "report.json"))
        run = recorded[key]
        problems[key] = checker.problems(job, run["exit"], run["report"])
    return problems


@pytest.mark.parametrize("key", CERTIFY4D_SEED0)
def test_a_certify4d_job_shows_what_its_scene_was_built_to_show(
        certify4d_problems, key):
    # Weyl- and the Lax residual vanish on the pair metrics, and each
    # negative control fails its checks with a residual linear in eps
    assert certify4d_problems[key] == []


def test_the_recorder_matches_a_fresh_interpreter(tmp_path):
    # the overflowing metric warns; a plain interpreter prints the warning
    path = _write_edited(tmp_path, "metric-overflow", "flat", ("metric",),
                         {"components": METRICS["overflow"]}, indent=1)
    argv = ["killing", path, "--samples", "17"]
    in_process = record(argv, tmp_path)
    fresh = subprocess.run(
        [sys.executable, "-m", "sdconformal.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert "RuntimeWarning" in in_process["stderr"]
    assert in_process["exit"] == fresh.returncode
    assert in_process["stderr"] == normalise_stderr(fresh.stderr, tmp_path)
    assert _same(in_process["report"],
                 _without_wall_time(json.loads(fresh.stdout)))


def test_one_ulp_in_one_report_float_differs_at_that_run_only():
    old = GOLDEN_DATA
    new = copy.deepcopy(old)
    key = "ward <work>/scenes/ward.json --samples 3"
    check = new[key]["report"]["checks"][0]
    check["value"] = math.nextafter(check["value"], math.inf)
    assert [k for k in old if not _same(old[k], new[k])] == [key]


def test_a_warning_that_only_moved_is_no_difference():
    text = ("{}/src/sdconformal/jets.py:{}: RuntimeWarning: overflow "
            "encountered in multiply\n  out = a * b\n")
    assert (normalise_stderr(text.format(ROOT, 198), "/a")
            == normalise_stderr(text.format(ROOT, 194), "/b"))


@pytest.mark.parametrize("slot,value,message", [
    (("pair", "phi0"), ["0", "0"], "singular jet matrix"),
    (("fields",), {"Z": ["0", "0", "0", "0"]},
     "the field vanishes at a sample point"),
], ids=["singular-phi-block", "vanishing-killing-field"])
def test_a_domain_error_is_one_line(tmp_path, slot, value, message):
    path = _write_edited(tmp_path, "edited", "flat", slot, value)
    run = record(["killing", path, "--samples", "4"], tmp_path)
    assert (run["exit"], run["stderr"], run["report"]) == (
        3, f"domain error: {message}\n", None)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        recorded = record_runs(Path(work))
    GOLDEN.write_text("".join(json.dumps(recorded[key], sort_keys=True) + "\n"
                              for key in sorted(recorded)))
    sys.stderr.write(f"wrote {len(recorded)} runs to {GOLDEN}\n")
