"""Seeded end-to-end and per-layer benchmark of the sdconformal CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload certify4d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: one command at a time, no
threads.  ``--trace 0`` starts SETUPS fresh worker processes one after the
other; each sets up (import, seeded scenes, warm-up) and then runs
commands for its share of ``--seconds``.  ``--trace 1`` runs one job cycle
untraced and then traced, and reports per-layer metrics.  The last line of
stdout is the JSON result; the lines before it are a readable summary,
the raw timings and the machine the numbers come from.

End-to-end times are scaled to a nominal CPU speed.  On a shared host the
CPU's speed swings by a third between minutes, so a fixed pure-Python
calibration loop is timed before every command, and times are multiplied
by NOMINAL_CALIBRATION_S over the run's median loop time (rates divided).
On a shared 2-vCPU Xeon host, ten 30-s certify4d runs spread by 14-18%
(IQR/median) raw and by 4-6% scaled.  The raw values are printed in the
summary; per-layer metrics are raw.

Self-test: ``python3 bench/selftest.py``.

Workloads (see BENCHMARK.json for the reasons):
  certify4d  4-D metric path in one process: certify-selfdual, curvature,
             killing, build-nullkahler on null-Kaehler family members;
  surface    surface-side pipelines in one process: builders, Lax check,
             divisor dichotomy, projective fields, congruences, gauge
             report and ward transport;
  cli-sweep  one ``python -m sdconformal.cli`` process per command over
             the checked-in scenes, batch.json and seeded variants.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scenes import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
SETUPS = 3           # fresh worker processes per timed run
NOMINAL_CALIBRATION_S = 0.005   # calibration loop time on an idle core
TIME_LIMIT = 170.0   # seconds; a workload run that takes longer is killed
TAIL = 0.75          # command_s.p75: ~50 cli-sweep commands leave 12 beyond
REQUIRED = ("src/sdconformal/cli.py", "docs/scene.schema.json",
            "docs/report.schema.json", "scenes/batch.json")

END_TO_END_UNITS = {"setup_s": "s", "command_s.p50": "s",
                    "command_s.p75": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def percentile(values, q, steps=32):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density.  Unlike the nearest
    ranks it moves smoothly when the quantile falls in a gap between two
    commands' times."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = estimate = 0.0
    for i, x in enumerate(xs):
        h = 1.0 / (n * steps)       # midpoint rule over (i/n, (i+1)/n)
        weight = h * sum(
            math.exp(log_norm + (a - 1) * math.log(t)
                     + (b - 1) * math.log1p(-t))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        total += weight
        estimate += weight * x
    return estimate / total


def machine():
    import importlib.metadata as md
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(name):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "jsonschema": version("jsonschema")}


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, workdir, deadline, mode="timed",
               spans=None, part=0):
    """Start one worker; returns (setup seconds, its JSON record).  The
    worker and its children form one process group, killed as a whole if
    the run outlives `deadline` (a time.monotonic value)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--workdir", str(workdir), "--mode", mode,
           "--part", str(part), "--parts", str(SETUPS)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker failed "
                          f"(exit {proc.returncode})")
    record = json.loads(lines[-1])
    return record["ready_at"] - t0, record


def timed_run(workload, seed, seconds, workdir, deadline):
    setups, records = [], []
    for k in range(SETUPS):
        setup_s, rec = run_worker(workload, seed, seconds / SETUPS,
                                  workdir / f"w{k}", deadline, part=k)
        setups.append(setup_s)
        records.append(rec)
    times = [t for r in records for t in r["seconds"]]
    points = sum(s for r in records for s in r["samples"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if not times:
        raise WorkerError(f"{workload}: no command completed")
    calibration = statistics.median(
        c for r in records for c in r["calibration"])
    raw = {
        "setup_s": statistics.median(setups),
        "command_s.p50": percentile(times, 0.5),
        "command_s.p75": percentile(times, TAIL),
        "points_per_s": points / sum(times),
    }
    scale = NOMINAL_CALIBRATION_S / calibration
    metrics = {name: value / scale if name == "points_per_s"
               else value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(r["peak_rss_kb"] for r in records) / 1024.0
    beyond = sum(t > raw["command_s.p75"] for t in times)
    info = {"commands": len(times), "beyond_p75": beyond,
            "failed_frac": failed / attempted,
            "calibration_s": calibration, "raw": raw, "setups": setups,
            "problems": [p for r in records for p in r["problems"]][:10]}
    return metrics, END_TO_END_UNITS, attempted, failed, info


def traced_run(workload, seed, seconds, workdir, deadline):
    import tracing
    spans = workdir / ("spans" if workload == "cli-sweep" else "spans.npz")
    _, rec = run_worker(workload, seed, seconds, workdir, deadline,
                        mode="trace", spans=spans)
    files = (sorted(spans.glob("*.npz")) if spans.is_dir() else [spans])
    stats, nodes = tracing.span_stats(files)
    metrics = {"cli.import_s": statistics.median(
        tracing.import_times(files))}
    metrics.update(tracing.layer_metrics(stats, nodes,
                                         rec["traced_samples"]))
    # each pass scaled by its own calibration, as the two ran at different
    # CPU speeds
    metrics["trace.overhead_frac"] = (
        (rec["traced_s"] / rec["traced_calibration_s"])
        / (rec["untraced_s"] / rec["untraced_calibration_s"]) - 1)
    units = tracing.units(metrics)
    info = {"commands": len(rec["commands"]),
            "failed_frac": rec["failed"] / rec["attempted"],
            "problems": rec["problems"][:10]}
    return metrics, units, rec["attempted"], rec["failed"], info


def run_workload(workload, seed, seconds, trace):
    workdir = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if trace:
            return traced_run(workload, seed, seconds, workdir, deadline)
        return timed_run(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a sdconformal checkout, missing {missing}",
              file=sys.stderr)
        return 2
    host = machine()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            metrics, units, attempted, failed, info = run_workload(
                workload, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(f"# {workload} seed={args.seed} trace={args.trace} "
              f"machine={json.dumps(host)}")
        print(f"# {workload} {json.dumps(info)}")
        for name, value in metrics.items():
            print(f"# {workload} {name} = {value:.6g} {units[name]}")
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
