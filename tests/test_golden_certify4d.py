"""Byte-identity of the reports of the benchmark's 4-D workload.

`golden/certify4d_seed0.json` holds, for the 20 `certify4d` jobs that
`bench/scenes.py` writes at seed 0, the exit code and the report with
every `wall_time` removed.  Beside the null-Kaehler members, whose 4-D
residuals are near 0, these jobs include the bent, tilted and timed
negative controls, whose residuals are not, so a change to the jet
pipeline that moves a low bit of a nonzero residual shows here.

`bench/scenes.py` is imported read-only.  As with `golden/reports.json`,
the bits are those of the numpy build and libm they were recorded with;
on another machine regenerate the file first, from a commit known to be
good:

    PYTHONPATH=src python tests/test_golden_certify4d.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sdconformal.cli import main
from test_golden_reports import _strip_wall_time
from test_schemas import BENCH_SCENES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "certify4d_seed0.json"
SEED = 0


def _key(job):
    return f"{Path(job.scene).stem}:{job.command}"


def run_all(workdir):
    """{job key: exit code and report without wall times} of every job."""
    jobs = BENCH_SCENES.jobs_for("certify4d", SEED, workdir, ROOT / "scenes")
    data = {}
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([job.command, job.scene, "--samples",
                         str(job.samples), "--seed", str(job.seed)])
        text = out.getvalue()
        data[_key(job)] = {"exit": code,
                           "report": _strip_wall_time(json.loads(text))}
    assert len(data) == len(jobs)
    return data


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("certify4d"))


# read when the module is collected; the regenerate entry below runs
# before the file exists
GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_the_workload_is_covered(reports):
    golden = json.loads(GOLDEN.read_text())
    assert len(reports) == 20
    assert set(reports) == set(golden)
    # the negative controls have residuals that are not near 0
    assert {entry["exit"] for entry in golden.values()} == {0, 1}


@pytest.mark.parametrize("key", sorted(GOLDEN_DATA))
def test_report_is_byte_identical(reports, key):
    assert (json.dumps(reports[key], sort_keys=True)
            == json.dumps(GOLDEN_DATA[key], sort_keys=True))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        data = run_all(workdir)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, sort_keys=True, separators=(",", ":"))
                      + "\n")
    sys.stderr.write(f"wrote {len(data)} entries to {GOLDEN}\n")
