"""The comparison step of `tools/diffreports.py`: a run differs when its
exit code, its stderr or its report less `wall_time` does, a report float
down to its last bit."""
import copy
import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _diffreports():
    spec = importlib.util.spec_from_file_location(
        "diffreports", ROOT / "tools" / "diffreports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    report = {"command": "curvature", "pass": True, "samples": 3,
              "checks": [{"name": "star_defect", "value": 1.5e-17,
                          "tolerance": 1e-10, "verdict": True}],
              "fitted": {"weyl_plus": 0.25, "ricci": math.nan}}
    return [{"argv": ["curvature", f"<work>/s{i}.json"], "exit": 0,
             "stderr": "", "report": copy.deepcopy(report)}
            for i in range(4)]


def test_identical_runs_do_not_differ():
    assert _diffreports().differences(_records(), _records()) == []


def test_one_ulp_in_one_report_float_is_flagged_at_that_run():
    new = _records()
    value = new[2]["report"]["fitted"]["weyl_plus"]
    new[2]["report"]["fitted"]["weyl_plus"] = math.nextafter(value, 1.0)
    found = _diffreports().differences(_records(), new)
    assert [(i, field) for i, field, _ in found] == [(2, "report")]


def test_a_warning_that_only_moved_is_no_difference():
    d = _diffreports()
    old, new = _records(), _records()
    for records, tree, line in ((old, "/a", 198), (new, "/b/c", 194)):
        records[1]["stderr"] = d.normalise_stderr(
            f"{tree}/src/sdconformal/projective.py:{line}: RuntimeWarning: "
            "overflow encountered in multiply\n  return by - a[1]\n",
            Path("/work"), Path(tree))
    assert d.differences(old, new) == []
    new[1]["exit"] = 1
    assert [(i, field) for i, field, _ in d.differences(old, new)] == [
        (1, "exit")]
