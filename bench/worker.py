"""One workload process: set up, then run commands in a closed loop.

Started by run.py in a fresh interpreter.  Set-up imports
``sdconformal.cli``, writes and ``load_scene``-validates the seeded
scenes and runs untimed warm-up commands; its end is recorded as
``ready_at`` (time.monotonic, which all processes share) and the worker
then runs one command at a time.  The in-process workloads call
``cli.main`` directly; cli-sweep starts one ``python -m sdconformal.cli``
process per command.  The last stdout line is a JSON record of the run.

Modes:
  timed  run the job cycle until --seconds have passed;
  trace  run one job cycle untraced, then the same cycle with every
         layer spanned, and write the spans to --spans.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import_t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
from sdconformal import cli  # noqa: E402

IMPORT_S = time.perf_counter() - import_t0

import check  # noqa: E402
import scenes  # noqa: E402

# Jobs in a traced run: a whole cycle of certify4d and surface, and every
# command of cli-sweep once or more (the cycle is interleaved by command).
TRACE_JOBS = 26
CALIBRATION_LOOP = 60000   # about 5 ms of pure Python


def calibration_s():
    """Seconds a fixed pure-Python loop takes right now.  Timed before every
    command, it tracks the speed of a shared CPU, which other tenants
    change by a third from one minute to the next."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Runs one job and returns (seconds, exit code, report or None)."""

    def __init__(self, workload, outdir, main=None, spans_dir=None):
        self.in_process = workload != "cli-sweep"
        self.outdir = Path(outdir)
        self.main = main or cli.main
        self.spans_dir = spans_dir
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, job):
        """Jobs are numbered from 0 in the order this runner ran them."""
        number = self.count
        self.count += 1
        out = self.outdir / f"report-{number}.json"
        argv = job.argv(out)
        if self.in_process:
            t0 = time.perf_counter()
            code = self.main(argv)
            seconds = time.perf_counter() - t0
        else:
            if self.spans_dir is None:
                cmd = [sys.executable, "-m", "sdconformal.cli", *argv]
            else:
                spans = Path(self.spans_dir) / f"spans-{number}.npz"
                cmd = [sys.executable, str(HERE / "tracedcli.py"), str(spans),
                       str(number), *argv]
            t0 = time.perf_counter()
            code = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                  timeout=120).returncode
            seconds = time.perf_counter() - t0
        report = None
        if out.exists():
            report = json.loads(out.read_text())
            out.unlink()
        return seconds, code, report


class Tally:
    def __init__(self):
        self.checker = check.Checker()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.seconds = []
        self.samples = []
        self.commands = []
        self.calibration = []

    def record(self, job, result, timed=True):
        seconds, code, report = result
        self.attempted += 1
        try:
            problems = self.checker.problems(job, code, report)
        except (KeyError, TypeError, ValueError, StopIteration) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(
                    f"{job.command} {Path(job.scene).name}: {problems}")
        if timed:
            self.seconds.append(seconds)
            self.samples.append(report.get("samples", 0)
                                if isinstance(report, dict) else 0)
            self.commands.append(job.command)


def run_job(runner, tally, job, timed=True):
    tally.calibration.append(calibration_s())
    try:
        result = runner.run(job)
    except Exception as exc:  # a raising command is a failed command
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"{job.command} {Path(job.scene).name}: "
                              f"raised {exc!r}")
        return
    tally.record(job, result, timed)


def setup(workload, seed, workdir, runner, tally):
    """Write and validate the scenes, then warm up.  In one process the
    warm-up is one command per (command, scene family), which fills the
    program's caches.  A fresh process per command keeps no cache but the
    OS file cache and bytecode, which one command fills."""
    jobs = scenes.jobs_for(workload, seed, Path(workdir) / "scenes",
                           ROOT / "scenes")
    for path in sorted({job.scene for job in jobs}):
        cli.load_scene(path)
    if runner.in_process:
        warmups = {(job.command, job.family): job for job in reversed(jobs)}
        warmups = sorted(warmups.values(), key=jobs.index)
    else:
        warmups = jobs[:1]
    for job in warmups:
        run_job(runner, tally, job, timed=False)
    return jobs


def peak_rss_kb(workload):
    who = (resource.RUSAGE_CHILDREN if workload == "cli-sweep"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("timed", "trace"), default="timed")
    ap.add_argument("--spans", help="trace mode: span file or directory")
    ap.add_argument("--part", type=int, default=0,
                    help="timed mode: start PART/PARTS of the way into the "
                         "job cycle, so the workers of one run share it")
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, workdir / "out")
    warm = Tally()
    jobs = setup(args.workload, args.seed, workdir, runner, warm)
    record = {"ready_at": time.monotonic(), "import_s": IMPORT_S}
    tally = Tally()
    tally.checker = warm.checker
    if args.mode == "timed":
        deadline = time.perf_counter() + args.seconds
        i = args.part * len(jobs) // args.parts
        while time.perf_counter() < deadline:
            run_job(runner, tally, jobs[i % len(jobs)])
            i += 1
    else:
        import tracing
        cycle = jobs[:TRACE_JOBS]
        for job in cycle:
            run_job(runner, tally, job)
        record["untraced_s"] = sum(tally.seconds)
        record["untraced_calibration_s"] = statistics.median(
            tally.calibration)
        traced = Tally()
        traced.checker = tally.checker
        tracer = tracing.Tracer()
        if runner.in_process:
            runner = Runner(args.workload, workdir / "out",
                            main=tracing.install(tracer))
        else:
            Path(args.spans).mkdir(parents=True, exist_ok=True)
            runner = Runner(args.workload, workdir / "out",
                            spans_dir=args.spans)
        for i, job in enumerate(cycle):
            tracer.command_id = i
            run_job(runner, traced, job)
        record["traced_s"] = sum(traced.seconds)
        record["traced_calibration_s"] = statistics.median(
            traced.calibration)
        record["traced_samples"] = sum(traced.samples)
        if runner.in_process:
            tracer.save(args.spans, {"import_s": IMPORT_S})
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems

    record.update(attempted=tally.attempted + warm.attempted,
                  failed=tally.failed + warm.failed,
                  problems=(warm.problems + tally.problems)[:20],
                  seconds=tally.seconds, samples=tally.samples,
                  calibration=warm.calibration + tally.calibration,
                  commands=tally.commands,
                  peak_rss_kb=peak_rss_kb(args.workload))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
