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


class TestSurfaceNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_congruence_residual_fails(self, capsys, tmp_path):
        # (1e200*x)^2 overflows, so a0 is inf - inf + 1 = NaN
        scene = json.loads((SCENES / "burgers.json").read_text())
        scene["projective"]["spray"] = ["(1e200*x)^2 - (1e200*x)^2 + 1",
                                        "0", "0", "0"]
        scene["congruences"] = {"zero": "0"}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(scene))
        code, report = run(capsys, "congruence", str(path))
        assert code == 1
        [check] = report["checks"]
        assert not math.isfinite(check["value"])
        assert check["verdict"] is False


class TestTypedExits:
    """Failures other than a failed tolerance exit 2 or 3, not 1, with a
    one-line message."""

    def _run(self, capsys, tmp_path, command, name, edit):
        scene = json.loads((SCENES / f"{name}.json").read_text())
        edit(scene)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scene))
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert not out
        return code, err

    def test_degenerate_lax_l0_is_a_domain_error(self, capsys, tmp_path):
        def edit(scene):
            scene["pair"]["phi0"] = ["0", "0"]
            scene["pair"]["phi1"] = ["0", "0"]
        code, err = self._run(capsys, tmp_path, "verify-lax", "flat", edit)
        assert code == 3
        assert err.startswith("domain error: degenerate L0")

    def test_exclusion_budget_is_a_scene_error(self, capsys, tmp_path):
        def edit(scene):
            scene["sampling"]["exclusions"] = [{"expr": "1", "guard": 10}]
        code, err = self._run(capsys, tmp_path, "congruence", "burgers", edit)
        assert code == 2
        assert err.startswith("scene error: exclusion guards reject")

    def test_empty_box_interval_is_a_scene_error(self, capsys, tmp_path):
        def edit(scene):
            scene["sampling"]["box"]["x"] = [1.0, 1.0]
        code, err = self._run(capsys, tmp_path, "congruence", "burgers", edit)
        assert code == 2
        assert err.startswith("scene error: empty box interval for x")

    def test_dependent_fields_are_a_domain_error(self, capsys, tmp_path):
        def edit(scene):
            field = ["0", "0", "1", "0"]
            scene["distributions"] = {"doubled": [field, field]}
        code, err = self._run(capsys, tmp_path, "frobenius", "flat", edit)
        assert code == 3
        assert err.startswith("domain error: dependent fields")

    @pytest.mark.parametrize("command,scene", [
        ("divisor2", "divisor2_roots.json"),
        ("congruence", "burgers.json"),
        ("verify-lax", "flat.json"),
        ("curvature", "flat.json"),
    ])
    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_sample_count_below_one_is_rejected(self, capsys, command, scene,
                                                samples):
        with pytest.raises(SystemExit) as exc:
            main([command, str(SCENES / scene), "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
