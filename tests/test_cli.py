"""Command line front end: exit codes, report shape, determinism."""

import json
import math
from pathlib import Path

import jsonschema
import pytest

from sdconformal.cli import _check, main

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


class TestExitCodes:
    @pytest.mark.parametrize("command,scene", [
        ("verify-lax", "flat.json"),
        ("verify-pair", "flat.json"),
        ("certify-selfdual", "nullkahler_hk.json"),
        ("curvature", "flat.json"),
        ("killing", "flat.json"),
        ("frobenius", "flat.json"),
        ("congruence", "burgers.json"),
        ("build-dw", "dw_twist.json"),
        ("build-twistfree", "twistfree.json"),
        ("build-nullkahler", "nullkahler_random.json"),
        ("gauge-report", "flat.json"),
        ("divisor2", "divisor2_roots.json"),
        ("divisor2", "divisor2_trivial.json"),
        ("ward", "ward.json"),
        ("projective-field", "projective_field.json"),
        ("batch", "batch.json"),
    ])
    def test_passing_scenes_exit_zero(self, capsys, command, scene):
        code, report = run(capsys, command, str(SCENES / scene))
        assert code == 0
        assert report["pass"]
        assert all(c["verdict"] for c in report["checks"])

    def test_failing_verdict_exits_one(self, capsys, tmp_path):
        scene = json.loads((SCENES / "flat.json").read_text())
        scene["pair"]["alpha0"] = ["0.001*w1*w2", "0"]
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(scene))
        code, report = run(capsys, "verify-lax", str(bad))
        assert code == 1
        assert not report["pass"]
        values = {c["name"]: c["value"] for c in report["checks"]}
        assert values["lax_residual"] > 1e-5

    def test_missing_scene_exits_two(self, capsys):
        code, report = run(capsys, "verify-lax", "/nonexistent/scene.json")
        assert code == 2 and report is None

    def test_invalid_schema_exits_two(self, capsys, tmp_path):
        scene = json.loads((SCENES / "flat.json").read_text())
        scene["unexpected_key"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        code, report = run(capsys, "verify-lax", str(bad))
        assert code == 2 and report is None

    def test_unparseable_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "verify-lax", str(bad))
        assert code == 2

    def test_domain_error_exits_three(self, capsys, tmp_path):
        scene = {
            "name": "singular",
            "coords": ["x", "y"],
            "congruences": {"bad": "1/(x - x)"},
            "sampling": {"box": {"x": [0.5, 1.5], "y": [1.0, 3.0]},
                         "count": 4, "seed": 0},
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(scene))
        code, report = run(capsys, "congruence", str(path))
        assert code == 3 and report is None


class TestReportShape:
    def test_report_fields(self, capsys):
        code, report = run(capsys, "congruence", str(SCENES / "burgers.json"))
        assert code == 0
        for key in ("command", "scene", "scene_digest", "version", "seed",
                    "samples", "order", "checks", "fitted", "pass",
                    "wall_time"):
            assert key in report
        assert len(report["scene_digest"]) == 64
        assert report["order"] == 3

    def test_out_flag_writes_the_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "verify-lax", str(SCENES / "flat.json"),
                      "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "verify-lax"

    def test_batch_aggregates_subreports(self, capsys):
        code, report = run(capsys, "batch", str(SCENES / "batch.json"))
        assert code == 0
        subs = report["fitted"]["reports"]
        assert len(subs) == 5
        assert all(r["pass"] for r in subs)


class TestDeterminismAndOverrides:
    def test_reports_are_byte_identical_up_to_wall_time(self, capsys):
        _, first = run(capsys, "certify-selfdual",
                       str(SCENES / "nullkahler_hk.json"))
        _, second = run(capsys, "certify-selfdual",
                        str(SCENES / "nullkahler_hk.json"))
        first.pop("wall_time")
        second.pop("wall_time")
        assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                               sort_keys=True)

    def test_sample_count_is_prefix_monotone(self, capsys):
        def worst(n):
            _, rep = run(capsys, "certify-selfdual",
                         str(SCENES / "nullkahler_hk.json"),
                         "--samples", str(n))
            return {c["name"]: c["value"] for c in rep["checks"]}

        small, large = worst(8), worst(32)
        for name in small:
            assert small[name] <= large[name] + 1e-15

    def test_seed_override_is_recorded(self, capsys):
        _, report = run(capsys, "verify-lax", str(SCENES / "flat.json"),
                        "--seed", "7")
        assert report["seed"] == 7

    def test_tol_override_can_fail_a_check(self, capsys):
        code, report = run(capsys, "congruence", str(SCENES / "burgers.json"),
                           "--tol", "congruence=1e-300")
        assert code == 1
        assert not report["pass"]


class TestSchemaValidation:
    def test_error_message_matches_jsonschema_validate(self, capsys, tmp_path):
        scene = json.loads((SCENES / "flat.json").read_text())
        scene["sampling"]["count"] = 0
        scene["unexpected_key"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        schema = json.loads((SCENES.parent / "docs" /
                             "scene.schema.json").read_text())
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(scene, schema)
        for _ in range(2):   # the second run uses the cached validator
            code = main(["verify-lax", str(bad)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.strip().endswith(want.value.message)


class TestNonFiniteValues:
    """Overflow and NaN on the batched 4-D path never certify."""

    def _scene(self, tmp_path, factor):
        scene = json.loads((SCENES / "nullkahler_hk.json").read_text())
        scene["factor"] = factor
        path = tmp_path / "factor.json"
        path.write_text(json.dumps(scene))
        return str(path)

    @pytest.mark.parametrize("command",
                             ["certify-selfdual", "curvature", "killing"])
    def test_exp_overflow_is_a_domain_error(self, capsys, tmp_path, command):
        code, report = run(capsys, command,
                           self._scene(tmp_path, "exp(800*z)"))
        assert code == 3 and report is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command",
                             ["certify-selfdual", "curvature", "killing"])
    def test_nan_metric_fails_its_checks(self, capsys, tmp_path, command):
        # (1e200*x)^2 overflows, so the factor is inf - inf + 1 = NaN
        factor = "(1e200*x)^2 - (1e200*x)^2 + 1"
        code, report = run(capsys, command, self._scene(tmp_path, factor))
        assert code == 1
        assert not report["pass"]
        values = [c["value"] for c in report["checks"]]
        assert not all(math.isfinite(v) for v in values)
        for c in report["checks"]:
            assert math.isfinite(c["value"]) or not c["verdict"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_check_fails_non_finite_values(self, value):
        assert _check("x", value, 1.0)["verdict"] is False
        assert _check("x", 0.5, 1.0)["verdict"] is True
