"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

1. A tiny run (every warm-up command of every workload) passes the
   checker.
2. A report with one flipped verdict, or with a NaN check value, is
   counted as failed.
3. Two traced runs with one seed give identical counts: every *.calls,
   jets.ops_per_point and expr.nodes_per_evaluate.
"""

import copy
import shutil
import sys
import time

import run
import worker


def tiny_run_passes(workdir):
    kept = None
    for workload in run.WORKLOADS:
        wd = workdir / workload
        runner = worker.Runner(workload, wd)
        wd.mkdir(parents=True)
        tally = worker.Tally()
        jobs = worker.setup(workload, 0, wd, runner, tally)
        assert tally.attempted > 0 and tally.failed == 0, tally.problems
        if kept is None:
            kept = jobs[0], runner.run(jobs[0])
    print("ok: a tiny run of every workload passes the checker")
    return kept


def corrupted_reports_fail(job, result):
    seconds, code, report = result
    assert worker.check.Checker().problems(job, code, report) == []
    flipped = copy.deepcopy(report)
    flipped["checks"][0]["verdict"] = not flipped["checks"][0]["verdict"]
    nan = copy.deepcopy(report)
    nan["checks"][0]["value"] = float("nan")
    for bad in (flipped, nan):
        tally = worker.Tally()
        tally.record(job, (seconds, code, bad))
        assert tally.failed == 1 and tally.attempted == 1, tally.problems
    print("ok: a flipped verdict and a NaN value each count as failed")


def traced_counts_repeat(workdir, seed=7):
    for workload in run.WORKLOADS:
        runs = []
        for k in range(2):
            deadline = time.monotonic() + run.TIME_LIMIT
            metrics, *_ = run.traced_run(workload, seed, 0,
                                         workdir / f"trace-{workload}-{k}",
                                         deadline)
            runs.append({name: value for name, value in metrics.items()
                         if name.endswith(".calls") or name in (
                             "jets.ops_per_point",
                             "expr.nodes_per_evaluate")})
        assert runs[0] == runs[1], (workload, runs)
        assert runs[0]["jets.mul.calls"] > 0
        print(f"ok: {workload}: {len(runs[0])} counts repeat across two "
              f"traced runs")


def main():
    workdir = run.WORKDIR / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        job, result = tiny_run_passes(workdir)
        corrupted_reports_fail(job, result)
        traced_counts_repeat(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
