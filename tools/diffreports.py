"""Compare what the command line does in two checkouts, run by run.

    python tools/diffreports.py OLD NEW

OLD and NEW are checkouts of this repository.  Each runs, in a fresh
interpreter with its own `src` first on the path, one list of runs:

* every checked-in scene (`scenes/*.json`) under every command, at 3 and
  at 17 samples;
* four explicit-metric variants of `scenes/flat.json` (flat, curved,
  transcendental and overflowing), each in the default orientation and
  in orientation -1, under `curvature`, `killing` and `certify-selfdual`,
  at 3 and at 17 samples;
* the benchmark jobs of seeds 0-3 of every workload, as the unchanged
  `bench/scenes.py` writes them.

The scenes and the jobs come from the checkout that holds this script,
and are written once into a temporary work directory that both sides
read.  A run is its exit code, its stderr and its report less every
`wall_time`.  In stderr the work directory and the checkout's path are
replaced by placeholders, and a warning's line number is dropped, so a
source line that only moved is no difference.  The script prints the run
count, the number of runs that differ and the first five differences,
and exits 1 if any run differs.
"""

import contextlib
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = (3, 17)
SEEDS = range(4)
SHOWN = 5

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
METRIC_COMMANDS = ("curvature", "killing", "certify-selfdual")


def _env(tree):
    """The environment of an interpreter that imports `tree`'s package."""
    return dict(os.environ, PYTHONPATH=str(Path(tree) / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def commands(tree):
    """The command names of `tree`'s command line."""
    out = subprocess.run(
        [sys.executable, "-c", "from sdconformal.cli import COMMANDS; "
         "print(' '.join(COMMANDS))"],
        env=_env(tree), check=True, capture_output=True, text=True).stdout
    return out.split()


def make_runs(work, names):
    """Write every scene into `work` and return the argument lists of the
    runs, each command one of `names`."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True   # leave no file in bench/
    import scenes as bench_scenes

    checked_in = work / "scenes"
    checked_in.mkdir()
    runs = []
    for path in sorted((ROOT / "scenes").glob("*.json")):
        (checked_in / path.name).write_bytes(path.read_bytes())
        runs += [[name, str(checked_in / path.name), "--samples", str(n)]
                 for name in names for n in SAMPLES]
    flat = json.loads((ROOT / "scenes" / "flat.json").read_text())
    for label, components in METRICS.items():
        for suffix, extra in (("", {}), ("-reversed", {"orientation": -1})):
            metric = dict(extra, components=components)
            path = work / f"metric-{label}{suffix}.json"
            path.write_text(json.dumps(dict(flat, metric=metric), indent=1))
            runs += [[name, str(path), "--samples", str(n)]
                     for name in METRIC_COMMANDS for n in SAMPLES]
    for workload in bench_scenes.WORKLOADS:
        for seed in SEEDS:
            outdir = work / "bench" / f"{workload}-{seed}"
            jobs = bench_scenes.jobs_for(workload, seed, outdir / "scenes",
                                         ROOT / "scenes")
            runs += [job.argv(outdir / "report.json") for job in jobs]
    return runs


def _without_wall_time(report):
    if isinstance(report, dict):
        return {k: _without_wall_time(v) for k, v in report.items()
                if k != "wall_time"}
    if isinstance(report, list):
        return [_without_wall_time(v) for v in report]
    return report


def normalise_stderr(text, work, tree):
    text = text.replace(str(work), "<work>").replace(str(tree), "<tree>")
    return re.sub(r"(\.py):\d+: (\w+Warning)", r"\1:<line>: \2", text)


def run_all(runs, work, tree):
    """Run each argument list through `cli.main` in this interpreter, and
    return one record a run: its exit code (or the exception that left
    `main`), its stderr and its report, as compared."""
    from sdconformal import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"imported {cli.__file__}, not the one in {tree}")
    records = []
    for argv in runs:
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        stdout, stderr = io.StringIO(), io.StringIO()
        # a fresh warnings registry a run: each warning shows once a run,
        # as it does in a process of its own
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), warnings.catch_warnings():
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
        records.append({
            "argv": [a.replace(str(work), "<work>") for a in argv],
            "exit": code,
            "stderr": normalise_stderr(stderr.getvalue(), work, tree),
            "report": _without_wall_time(json.loads(text)) if text else None,
        })
    return records


def _report_text(report):
    return json.dumps(report, indent=1, sort_keys=True).splitlines()


def differences(old, new):
    """(run index, field, detail lines) for each field of each run in which
    the two record lists differ; a report is compared as sorted JSON, so
    that floats differ by their last bit and NaN equals NaN."""
    found = []
    for i, (a, b) in enumerate(zip(old, new, strict=True)):
        if a["exit"] != b["exit"]:
            found.append((i, "exit", [f"{a['exit']!r} -> {b['exit']!r}"]))
        if a["stderr"] != b["stderr"]:
            found.append((i, "stderr", list(difflib.unified_diff(
                a["stderr"].splitlines(), b["stderr"].splitlines(),
                lineterm="", n=0))[2:]))
        ta, tb = _report_text(a["report"]), _report_text(b["report"])
        if ta != tb:
            found.append((i, "report", list(difflib.unified_diff(
                ta, tb, lineterm="", n=2))[2:]))
    return found


def _run_tree(tree, runs_path, records_path):
    subprocess.run([sys.executable, __file__, "--worker", str(tree),
                    str(runs_path), str(records_path)],
                   env=_env(tree), check=True, stdin=subprocess.DEVNULL)
    return json.loads(records_path.read_text())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        tree, runs_path, records_path = argv[1:]
        runs = json.loads(Path(runs_path).read_text())
        records = run_all(runs, Path(runs_path).parent, Path(tree).resolve())
        Path(records_path).write_text(json.dumps(records))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        names = sorted(set(commands(old)) | set(commands(new)))
        runs = make_runs(work, names)
        runs_path = work / "runs.json"
        runs_path.write_text(json.dumps(runs))
        before = _run_tree(old, runs_path, work / "old.json")
        after = _run_tree(new, runs_path, work / "new.json")
    found = differences(before, after)
    differing = sorted({i for i, _, _ in found})
    print(f"{len(runs)} runs, {len(differing)} differ "
          "(exit code, stderr or report less wall_time)")
    for i in differing[:SHOWN]:
        print(f"\nrun {i}: {' '.join(before[i]['argv'])}")
        for _, field, lines in (d for d in found if d[0] == i):
            print(f"  {field}:")
            print("\n".join(f"    {line}" for line in lines[:12]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
