"""Command line front end: exit codes, report shape, determinism."""

import argparse
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import pytest

from sdconformal import cli, conformal, pairs
from sdconformal.cli import TOLERANCES, _check, main
from sdconformal.expr import Expression, parse
from sdconformal.jets import stack
from sdconformal.pairs import LaxPair, lax_residual
from sdconformal.projective import ProjectiveSurface
from sdconformal.sampling import halton_points

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
                    "samples", "checks", "fitted", "pass", "wall_time"):
            assert key in report
        assert len(report["scene_digest"]) == 64

    def test_order_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["congruence", str(SCENES / "burgers.json"), "--order", "3"])
        assert exc.value.code == 2
        assert "--order" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--order" not in capsys.readouterr().out

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


def _plain(value):
    """Whether `value` is JSON data of the builtin types exactly: no numpy
    scalar or array, no tuple, no subclass."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name", sorted(p.name for p in SCENES.iterdir()))
def test_reports_are_plain_json_data(name):
    # run_command returns each report as its command built it, with no
    # converter behind it: a numpy value in a report fails here
    args = argparse.Namespace(samples=None, seed=None, tol=None)
    accepted = []
    for command in sorted(cli.COMMANDS):
        try:
            report = cli.run_command(command, cli.load_scene(SCENES / name),
                                     args)
        except cli.SceneError:
            continue
        assert _plain(report), command
        accepted.append(command)
    assert accepted


class TestSceneDigest:
    """`scene_digest` is the SHA-256 hex of the scene file's bytes."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENES.iterdir()))
    def test_checked_in_scene(self, name):
        path = SCENES / name
        assert (cli.load_scene(path)["_digest"]
                == hashlib.sha256(path.read_bytes()).hexdigest())

    def test_non_ascii_bytes(self, tmp_path):
        scene = json.loads((SCENES / "flat.json").read_text())
        scene["name"] = "Selbstdual \u2013 \u03bb \u00e9t\u00e9 \U0001d53b"
        path = tmp_path / "scene.json"
        path.write_bytes(json.dumps(scene, ensure_ascii=False).encode())
        assert not path.read_bytes().isascii()
        assert (cli.load_scene(path)["_digest"]
                == hashlib.sha256(path.read_bytes()).hexdigest())


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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seed_override_is_recorded(self, capsys, seed):
        _, report = run(capsys, "verify-lax", str(SCENES / "flat.json"),
                        "--seed", str(seed))
        assert report["seed"] == seed

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_null_kahler_structure_fails_its_checks(self, capsys,
                                                        tmp_path):
        # the NaN factor reaches the structure identities through the
        # null-Kaehler check's own reduction, not only through Weyl
        scene = json.loads((SCENES / "nullkahler_random.json").read_text())
        scene["build"]["f"] = "(1e200*x)^2 - (1e200*x)^2 + 1"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(scene))
        code, report = run(capsys, "build-nullkahler", str(path))
        assert code == 1 and not report["pass"]
        nan = {c["name"] for c in report["checks"] if math.isnan(c["value"])}
        assert nan == {"domega", "compatibility", "g_JJ", "killing",
                       "omega_antiselfdual", "weyl_minus"}
        for c in report["checks"]:
            assert c["verdict"] is (c["name"] not in nan)

    OVERFLOWS = {
        "flat": ("pair", "alpha0", ["1e308*x*x", "0"]),
        "nullkahler_hk": (None, "factor", "1e308*z*z*z"),
        "nullkahler_random": ("build", "f", "1e308*z*z*z"),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scene,command,code,nan", [
        ("flat", "certify-selfdual", 1, {"weyl_minus"}),
        ("flat", "curvature", 1, {"star_defect"}),
        ("flat", "killing", 3, None),
        ("nullkahler_hk", "certify-selfdual", 1, {"weyl_minus", "ricci"}),
        ("nullkahler_hk", "curvature", 1, {"star_defect"}),
        ("nullkahler_hk", "killing", 1, {"conformal_killing[K]"}),
        ("nullkahler_random", "build-nullkahler", 1,
         {"domega", "compatibility", "g_JJ", "killing",
          "omega_antiselfdual", "weyl_minus"}),
    ])
    def test_overflowing_scenes_never_pass(self, capsys, tmp_path, scene,
                                           command, code, nan):
        # 1e308 times a square or cube overflows at some sample points;
        # the curvature then meets inf - inf, which must read NaN and fail
        data = json.loads((SCENES / f"{scene}.json").read_text())
        section, key, value = self.OVERFLOWS[scene]
        (data[section] if section else data)[key] = value
        path = tmp_path / f"{scene}.json"
        path.write_text(json.dumps(data))
        got, report = run(capsys, command, str(path), "--samples", "4")
        assert got == code
        if nan is None:
            assert report is None
            return
        assert not report["pass"]
        values = {c["name"]: c["value"] for c in report["checks"]}
        assert {k for k, v in values.items() if math.isnan(v)} == nan
        assert all(math.isfinite(v) for k, v in values.items()
                   if k not in nan)
        assert all(c["verdict"] is False for c in report["checks"]
                   if c["name"] in nan)

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

    def test_singular_guard_rejects_the_candidate(self, capsys, tmp_path):
        # log(x) is singular on half the box: those candidates are
        # rejected like ones inside the guard, not a domain error
        scene = json.loads((SCENES / "burgers.json").read_text())
        scene["sampling"]["box"]["x"] = [-1.0, 1.0]
        scene["sampling"]["exclusions"] = [{"expr": "log(x)", "guard": 0.1}]
        path = tmp_path / "burgers.json"
        path.write_text(json.dumps(scene))
        code, report = run(capsys, "congruence", str(path))
        assert code == 0
        assert report["samples"] == 32
        points = halton_points(("x", "y"), scene["sampling"]["box"], 32,
                               exclusions=[(parse("log(x)", ("x", "y")), 0.1)])
        assert len(points["x"]) == 32
        assert all(x > 0 and abs(math.log(x)) > 0.1 for x in points["x"])

    def test_empty_box_interval_is_a_scene_error(self, capsys, tmp_path):
        def edit(scene):
            scene["sampling"]["box"]["x"] = [1.0, 1.0]
        code, err = self._run(capsys, tmp_path, "congruence", "burgers", edit)
        assert code == 2
        assert err.startswith("scene error: empty box interval for x")

    @pytest.mark.parametrize("twist,code,start", [
        ("1/(x - x)", 2, "scene error: variable 'x' not among allowed"),
        ("x +", 2, "scene error: variable 'x' not among allowed"),
        ("1/(1 - 1)", 3, "domain error: division by a jet"),
    ])
    def test_a_non_constant_dw_twist_ends_in_one_line(self, capsys, tmp_path,
                                                       twist, code, start):
        # build-dw's twist c is a constant: it used to be read with
        # float(), so text that is no number ended in a ValueError
        def edit(scene):
            scene["build"]["c"] = twist
        got, err = self._run(capsys, tmp_path, "build-dw", "dw_twist", edit)
        assert got == code
        assert err.startswith(start) and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_is_rejected(self, capsys, seed):
        # a negative seed used to start the Halton sequence at an index
        # <= 0, putting the first points all on the box's lower corner
        with pytest.raises(SystemExit) as exc:
            main(["verify-lax", str(SCENES / "flat.json"), "--samples", "3",
                  "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and f"must be at least 0, not {seed}" in err


@pytest.mark.parametrize("length", [0.555, 0.57])
def test_ward_integrates_the_same_length_at_both_steps(capsys, tmp_path,
                                                       length):
    # 0.555 is not a whole number of 0.01 steps: both runs must still end
    # at length 0.555 (a last half step at h, whole steps at h/2)
    scene = json.loads((SCENES / "ward.json").read_text())
    scene["ward"].update(start=[0.0, 0.0, 0.5], length=length)
    path = tmp_path / "ward.json"
    path.write_text(json.dumps(scene))
    code, report = run(capsys, "ward", str(path))
    assert code == 0
    assert report["checks"][0]["value"] < 1e-9
    assert report["fitted"]["end"][0] == pytest.approx(length, abs=1e-14)


@pytest.mark.parametrize("key,value", [("step", 0), ("step", -0.01),
                                       ("length", 0), ("length", -1)])
def test_ward_step_and_length_must_be_positive(capsys, tmp_path, key, value):
    # a step <= 0 used to end in a ValueError traceback (exit 1), and a
    # length <= 0 integrated nothing and passed with exit 0
    scene = json.loads((SCENES / "ward.json").read_text())
    scene["ward"][key] = value
    path = tmp_path / "ward.json"
    path.write_text(json.dumps(scene))
    code = main(["ward", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"scene error: ward: {key} must be positive and finite, " \
                  f"got {float(value)!r}\n"


@pytest.mark.parametrize("length", [1e300, 5000.01])
def test_ward_work_is_bounded(capsys, tmp_path, length):
    # 1e300 used to end in an OverflowError traceback with exit 1, and a
    # long finite length built a list of length/step step sizes; 5000.01
    # at step 0.01 is 1,000,002 steps at step/2, just over the cap, and
    # is refused before any path is integrated
    code, out, err = _run_edited(
        capsys, tmp_path, "ward", "ward",
        lambda scene: scene["ward"].update(length=length, step=0.01))
    assert code == 2 and out == ""
    assert err == (f"scene error: ward: the run at step/2 would take "
                   f"{2.0 * length / 0.01:.6g} steps, more than "
                   f"{cli.WARD_MAX_STEPS}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_ward_spray_fails_without_a_traceback(capsys,
                                                            tmp_path):
    # a0 = 1e200 sends lam past every float within a few steps; lam^2 and
    # lam^3 must then read inf (so the state goes NaN), not raise the
    # OverflowError a Python float's ** raises.  The RK4 runs on Python
    # floats, so numpy has no overflow to warn about
    code, out, err = _run_edited(
        capsys, tmp_path, "ward", "ward",
        lambda scene: scene["projective"].update(
            spray=["1e200", "0", "0", "0"]))
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    [check] = report["checks"]
    assert check["name"] == "transport_convergence"
    assert math.isnan(check["value"]) and check["verdict"] is False
    assert math.isnan(report["fitted"]["transport"])
    assert all(math.isnan(v) for v in report["fitted"]["end"])
    assert "Error" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_a_sine_domain_error_in_ward_names_the_function(capsys, tmp_path,
                                                         fn):
    # 1e300*1e300 folds to inf, so fn's argument leaves the domain once x
    # moves off 0; cos used to be reported as sin
    code, out, err = _run_edited(
        capsys, tmp_path, "ward", "ward",
        lambda scene: scene["ward"].update(rho=[f"{fn}(1e300*1e300*x)", "0"]))
    assert code == 3 and out == ""
    assert err == f"domain error: {fn} outside its domain at a sample point\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_metric_never_passes_killing(capsys, tmp_path):
    # 1e308*x*x overflows at some of the 4 points.  The command fails
    # because the metric's numpy inverse raises there; whatever inverse it
    # uses, it must not exit 0 or report a pass
    scene = json.loads((SCENES / "flat.json").read_text())
    scene["pair"]["alpha0"] = ["1e308*x*x", "0"]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(scene))
    code, report = run(capsys, "killing", str(path), "--samples", "4")
    assert code != 0
    assert report is None or report["pass"] is False


def _row3_metric(scene):
    scene["metric"] = {"components": [["0", "0", "1"],
                                      ["0", "0", "-1", "0"],
                                      ["0", "-1", "0", "0"],
                                      ["1", "0", "0", "0"]]}


def _set_divisor(key, value):
    return lambda scene: scene["divisor2"][0].update({key: value})


# scenes whose lists have the wrong length for their place: each used to
# end in a 17-26-line traceback with exit 1
BAD_SHAPES = {
    "metric_row_of_3": ("curvature", "flat", _row3_metric,
                        "['0', '0', '1'] is too short"),
    "empty_distribution": ("frobenius", "flat",
                           lambda scene: scene.update(
                               distributions={"empty": []}),
                           "[] should be non-empty"),
    "divisor2_phi_of_3": ("divisor2", "divisor2_roots",
                          _set_divisor("phi", ["1", "0", "0"]),
                          "['1', '0', '0'] is too long"),
    "divisor2_rho_of_3": ("divisor2", "divisor2_roots",
                          _set_divisor("rho", ["1", "0", "0"]),
                          "['1', '0', '0'] is too long"),
    "surface_field_of_1": ("projective-field", "projective_field",
                           lambda scene: scene.update(
                               surface_fields={"V": ["x"]}),
                           "['x'] is too short"),
    "ward_rho_of_1": ("ward", "ward",
                      lambda scene: scene["ward"].update(rho=["x"]),
                      "['x'] is too short"),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_list_lengths_are_scene_errors(capsys, tmp_path, case):
    command, name, edit, message = BAD_SHAPES[case]
    code, out, err = _run_edited(capsys, tmp_path, command, name, edit)
    assert code == 2 and out == ""
    assert err.startswith("scene error: ") and err.count("\n") == 1
    assert err.endswith(f"invalid: {message}\n")


def test_an_explicit_metric_needs_four_coordinates(capsys, tmp_path):
    # a 4x4 metric over 3 coordinates used to end in a numpy broadcast
    # ValueError traceback with exit 1
    def edit(scene):
        scene["coords"] = ["x", "y", "w1"]
        _metric(scene, "0")
    code, out, err = _run_edited(capsys, tmp_path, "curvature", "flat", edit)
    assert code == 2 and out == ""
    assert err == ("scene error: a 4-metric needs 4 coordinates, not "
                   "['x', 'y', 'w1']\n")


def _put(*keys):
    """An edit that writes the bad expression at scene[keys[0]][keys[1]]..."""
    def edit(scene, bad):
        *path, last = keys
        for key in path:
            scene = scene[key]
        scene[last] = bad
    return edit


def _metric(scene, bad):
    scene["metric"] = {"components": [[bad, "0", "0", "1"],
                                      ["0", "0", "-1", "0"],
                                      ["0", "-1", "0", "0"],
                                      ["1", "0", "0", "0"]]}


# every place a scene holds an expression that no other handler wraps:
# (command, scene, edit writing the expression there)
EXPRESSION_SITES = {
    "sampling.exclusions": ("congruence", "burgers",
                            _put("sampling", "exclusions", 0, "expr")),
    "congruences": ("congruence", "burgers", _put("congruences", "radial")),
    "fields": ("killing", "flat", _put("fields", "K", 2)),
    "distributions": ("frobenius", "flat",
                      _put("distributions", "beta_planes", 0, 2)),
    "surface_fields": ("projective-field", "projective_field",
                       _put("surface_fields", "dilation", 0)),
    "ward.rho": ("ward", "ward", _put("ward", "rho", 0)),
    "divisor2": ("divisor2", "divisor2_trivial", _put("divisor2", 0, "phi", 1)),
    "build.gamma": ("build-dw", "dw_twist", _put("build", "gamma")),
    "build.H": ("build-dw", "dw_twist", _put("build", "H")),
    "build.beta": ("build-twistfree", "twistfree", _put("build", "beta")),
    "build.a": ("build-nullkahler", "nullkahler_random", _put("build", "a")),
    "build.f": ("build-nullkahler", "nullkahler_random", _put("build", "f")),
    "factor": ("certify-selfdual", "nullkahler_hk", _put("factor")),
    "metric.components": ("curvature", "flat", _metric),
}


def _run_edited(capsys, tmp_path, command, name, edit):
    scene = json.loads((SCENES / f"{name}.json").read_text())
    edit(scene)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scene))
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("job,message", [
    ({"command": "nope", "scene": "flat.json"}, "unknown command 'nope'"),
    ({"command": "batch", "scene": "batch.json"}, "batches do not nest"),
])
def test_batch_jobs_are_known_non_batch_commands(capsys, tmp_path, job,
                                                 message):
    # an unknown command used to end in a KeyError traceback, and a batch
    # that lists itself in a RecursionError, both with exit 1
    code, out, err = _run_edited(capsys, tmp_path, "batch", "batch",
                                 lambda scene: scene["batch"].insert(0, job))
    assert code == 2 and out == ""
    assert err == f"scene error: batch: {message}\n"


@pytest.mark.parametrize("site", sorted(EXPRESSION_SITES))
@pytest.mark.parametrize("bad", ["x +", "q"])
def test_bad_expressions_are_scene_errors(capsys, tmp_path, site, bad):
    # a malformed or unknown-variable expression used to end in a
    # traceback with exit 1 everywhere but the projective and pair data
    command, name, edit = EXPRESSION_SITES[site]
    code, out, err = _run_edited(capsys, tmp_path, command, name,
                                 lambda scene: edit(scene, bad))
    assert code == 2 and out == ""
    assert err.startswith("scene error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,name,missing", [
    ("build-dw", "nullkahler_random", "['gamma', 'H', 'G']"),
    ("build-twistfree", "nullkahler_random", "['beta']"),
    ("build-nullkahler", "twistfree", "['a', 'c', 'f']"),
])
def test_missing_build_keys_are_scene_errors(capsys, tmp_path, command, name,
                                             missing):
    code, out, err = _run_edited(capsys, tmp_path, command, name,
                                 lambda scene: None)
    assert code == 2 and out == ""
    assert err == f"scene error: {command}: build section lacks {missing}\n"


class TestToleranceOverrides:
    def _exit(self, capsys, *tol):
        with pytest.raises(SystemExit) as exc:
            main(["divisor2", str(SCENES / "divisor2_roots.json"),
                  *(arg for t in tol for arg in ("--tol", t))])
        return exc.value.code, capsys.readouterr().err

    def test_unknown_name_is_rejected(self, capsys):
        code, err = self._exit(capsys, "divisor2=1e-9", "nosuch=1e-9")
        assert code == 2 and "unknown tolerance 'nosuch'" in err

    def test_value_must_be_a_number(self, capsys):
        for text in ("ward=abc", "ward", "ward="):
            code, err = self._exit(capsys, text)
            assert code == 2 and "tolerance ward needs a number" in err

    def test_old_readme_example_names_no_tolerance(self, capsys):
        # dc_residual is the report's value, not a tolerance: the override
        # used to be accepted and change nothing
        code, err = self._exit(capsys, "dc_residual=1e-9")
        assert code == 2 and "unknown tolerance 'dc_residual'" in err

    def test_divisor2_override_reaches_its_check(self, capsys):
        code, report = run(capsys, "divisor2",
                           str(SCENES / "divisor2_roots.json"),
                           "--tol", "divisor2=1e-300")
        assert code == 1
        [check] = [c for c in report["checks"]
                   if c["name"] == "weyl_connection_consistency"]
        assert check["tolerance"] == 1e-300 and not check["verdict"]

    @pytest.mark.parametrize("text", ["lax=nan", "lax=NaN", "lax=-nan"])
    def test_a_nan_override_is_rejected(self, capsys, text):
        # a NaN tolerance used to fail every check it set, with exit 1
        code, err = self._exit(capsys, text)
        assert code == 2
        assert err.endswith("error: argument --tol: tolerance lax needs a "
                            f"number, not {text[4:]!r}\n")

    def test_a_nan_scene_tolerance_is_a_scene_error(self, capsys, tmp_path):
        # json reads NaN and the schema's number admits it; verify-lax used
        # to exit 1 with "tolerance": NaN in its report
        code, out, err = _run_edited(
            capsys, tmp_path, "verify-lax", "flat",
            lambda scene: scene.setdefault("tolerances", {}).update(
                lax=math.nan))
        assert code == 2 and out == ""
        assert err == "scene error: tolerance lax needs a number, not NaN\n"

    @pytest.mark.parametrize("value,exit_code", [(math.inf, 0), (-1.0, 1)])
    def test_infinite_and_negative_tolerances_still_run(
            self, capsys, value, exit_code):
        code, report = run(capsys, "verify-lax", str(SCENES / "flat.json"),
                           "--samples", "4", "--tol", f"lax={value}")
        assert code == exit_code
        assert [c["tolerance"] for c in report["checks"]] == [value] * 2

    def test_unknown_scene_tolerance_is_a_scene_error(self, capsys, tmp_path):
        # a scene's unknown tolerance name used to be ignored: this scene
        # ran with the default divisor2 tolerance and exited 0
        code, out, err = _run_edited(
            capsys, tmp_path, "divisor2", "divisor2_roots",
            lambda scene: scene.setdefault("tolerances", {}).update(
                dc_residual=1e-300))
        assert code == 2 and out == ""
        assert err == ("scene error: unknown tolerance 'dc_residual'; "
                       f"known: {', '.join(TOLERANCES)}\n")


def _one_fiber(scene):
    """flat.json with the trivial pair over a 1-dimensional fiber z."""
    scene["coords"] = ["x", "y", "z"]
    scene["pair"] = {"fiber": ["z"], "alpha0": ["0"], "alpha1": ["0"],
                     "phi0": ["1"], "phi1": ["0"]}
    scene["fields"] = {"K": ["0", "0", "1"]}
    box = scene["sampling"]["box"]
    scene["sampling"]["box"] = {"x": box["x"], "y": box["y"], "z": [-1, 1]}


@pytest.mark.parametrize("command", ["curvature", "killing",
                                     "certify-selfdual"])
def test_a_one_dimensional_fiber_is_a_scene_error(capsys, tmp_path, command):
    # used to end in a "4-metric needs a 2-dimensional fiber" ValueError
    # traceback with exit 1
    code, out, err = _run_edited(capsys, tmp_path, command, "flat",
                                 _one_fiber)
    assert code == 2 and out == ""
    assert err == ("scene error: a 4-metric needs a 2-dimensional fiber, "
                   "not ['z']\n")


_PAIR_COMMANDS = ("verify-lax", "verify-pair", "certify-selfdual",
                  "gauge-report", "curvature")


@pytest.mark.parametrize("fiber,command", [
    *((fiber, command) for fiber in (["x", "y"], ["x", "w2"])
      for command in _PAIR_COMMANDS),
    *((fiber, command) for fiber in (["w1", "w1"], ["lambda", "w2"])
      for command in ("verify-pair", "gauge-report", "curvature")),
])
def test_a_fiber_name_that_repeats_or_clashes_is_a_scene_error(
        capsys, tmp_path, fiber, command):
    # these used to exit 0 on jets that seeded one copy of the name
    def edit(scene):
        scene["pair"]["fiber"] = fiber
        scene["sampling"]["box"]["lambda"] = [-1, 1]
    code, out, err = _run_edited(capsys, tmp_path, command, "flat", edit)
    assert code == 2 and out == ""
    assert err == (f"scene error: bad pair data: fiber {fiber} repeats a "
                   "name or uses x, y or lambda\n")


@pytest.mark.parametrize("command,extra", [
    ("curvature", {"metric": {"components": [["0", "0", "1", "0"],
                                             ["0", "0", "0", "1"],
                                             ["1", "0", "0", "0"],
                                             ["0", "1", "0", "0"]]}}),
    ("frobenius", {}),   # flat.json's distributions
])
def test_repeated_coordinates_are_a_scene_error(capsys, tmp_path, command,
                                                extra):
    # these used to exit 0
    code, out, err = _run_edited(
        capsys, tmp_path, command, "flat",
        lambda scene: scene.update(coords=["x", "x", "w1", "w2"], **extra))
    assert code == 2 and out == ""
    assert err == ("scene error: coordinates ['x', 'x', 'w1', 'w2'] repeat "
                   "a name\n")


@pytest.mark.parametrize("comps", [["0", "0", "1"],
                                   ["0", "0", "1", "0", "0"]])
def test_a_killing_field_needs_one_component_per_coordinate(
        capsys, tmp_path, comps):
    # used to end in a ValueError traceback from einsum with exit 1
    code, out, err = _run_edited(capsys, tmp_path, "killing", "nullkahler_hk",
                                 lambda scene: scene["fields"].update(K=comps))
    assert code == 2 and out == ""
    assert err == (f"scene error: killing: field K has {len(comps)} "
                   "components, not one per coordinate "
                   "['x', 'y', 't', 'z']\n")


def test_a_killing_field_is_read_before_the_metric_is_evaluated(
        capsys, tmp_path):
    # one metric serves every field, and the fields are parsed first, so
    # a field that does not parse is a scene error even on a frame that
    # is singular at every point
    def edit(scene):
        scene["pair"]["phi0"] = ["0", "0"]
        scene["fields"]["K"] = ["0", "0", "1", "x +"]
    code, out, err = _run_edited(capsys, tmp_path, "killing", "flat", edit)
    assert code == 2 and out == "" and err.startswith("scene error:")
    code, out, err = _run_edited(
        capsys, tmp_path, "killing", "flat",
        lambda scene: scene["pair"].update(phi0=["0", "0"]))
    assert code == 3 and out == ""
    assert err == "domain error: singular jet matrix\n"


@pytest.mark.parametrize("fields,count", [
    ([["0", "0", "1"], ["0", "1", "0"]], 3),
    ([["0", "0", "1", "0"], ["0", "0", "1"]], 3),
    ([["0", "0", "1", "0"], ["0", "0", "0", "1", "0"]], 5),
])
def test_a_distribution_field_needs_one_component_per_coordinate(
        capsys, tmp_path, fields, count):
    # 3-component and ragged fields used to end in a ValueError traceback
    # with exit 1
    code, out, err = _run_edited(
        capsys, tmp_path, "frobenius", "flat",
        lambda scene: scene["distributions"].update(beta_planes=fields))
    assert code == 2 and out == ""
    assert err == (f"scene error: frobenius: a field of beta_planes has "
                   f"{count} components, not one per coordinate "
                   "['x', 'y', 'w1', 'w2']\n")


def test_build_nullkahler_computes_no_lax_residual(capsys, monkeypatch):
    # its report has no Lax check, so the residual was work thrown away
    calls, brackets = [], []
    bracket_at = LaxPair.bracket_at

    def spy(*args):
        calls.append(args)
        return lax_residual(*args)

    def counting(self, point):
        brackets.append(point)
        return bracket_at(self, point)

    monkeypatch.setattr(cli, "lax_residual", spy)
    monkeypatch.setattr(LaxPair, "bracket_at", counting)
    code, report = run(capsys, "build-nullkahler",
                       str(SCENES / "nullkahler_random.json"))
    assert code == 0 and report["pass"]
    assert calls == [] and brackets == []
    # certify-selfdual reports it, through the same binding
    code, report = run(capsys, "certify-selfdual",
                       str(SCENES / "nullkahler_hk.json"))
    assert code == 0 and len(calls) == 1 and len(brackets) == 1


def _run_spied(capsys, monkeypatch, command, path):
    """Run a command, recording the order and shape of each
    `jet_gauss_solve` and how often the pair's fields were evaluated:
    the calls of `conformal.jets_at` on a 4 x 2 nested list, the rows
    phi0, phi1, alpha0, alpha1 at w1, w2."""
    solves, nestings = [], []
    solve, evaluate = conformal.jet_gauss_solve, conformal.jets_at

    def spy(A, B):
        a = stack(A)
        solves.append((a.space.order, a.coeffs.shape[-3:-1]))
        return solve(A, B)

    def jets_spy(exprs, space, point):
        nest, item = [], exprs
        while not isinstance(item, Expression):
            nest.append(len(item))
            item = item[0]
        nestings.append(tuple(nest))
        return evaluate(exprs, space, point)

    monkeypatch.setattr(conformal, "jet_gauss_solve", spy)
    monkeypatch.setattr(conformal, "jets_at", jets_spy)
    code, report = run(capsys, command, str(path))
    return code, report, solves, nestings.count((4, 2))


@pytest.mark.parametrize("command,scene,orders", [
    ("certify-selfdual", "flat", [1]),
    ("certify-selfdual", "nullkahler_hk", [1]),
    ("curvature", "flat", [1]),
    ("curvature", "nullkahler_hk", [1]),
    ("killing", "flat", [0]),
    ("killing", "nullkahler_hk", [0]),
    ("build-nullkahler", "nullkahler_random", [1]),
])
def test_each_4d_command_solves_at_the_orders_it_reads(
        capsys, monkeypatch, command, scene, orders):
    # one metric solve an order below the metric's, the Christoffels
    # reading the inverse metric to first order; no frame is solved, only
    # the fibre block eliminated; the metric and the orientation come
    # from one evaluation of the pair's eight fields
    code, _, solves, field_evaluations = _run_spied(
        capsys, monkeypatch, command, SCENES / f"{scene}.json")
    assert code == 0
    assert solves == [(k, (4, 4)) for k in orders]
    assert field_evaluations == 1


def test_gauge_report_evaluates_the_fields_at_order_two(capsys, monkeypatch):
    # its deepest reads are the divergence's gradient and the value of the
    # second z-derivative
    orders, evaluate = [], pairs.jets_at

    def spy(exprs, space, point):
        orders.append(space.order)
        return evaluate(exprs, space, point)
    monkeypatch.setattr(pairs, "jets_at", spy)
    code, _ = run(capsys, "gauge-report", str(SCENES / "nullkahler_hk.json"))
    assert code == 0
    assert orders == [2]


def test_divisor2_solves_the_christoffels_at_the_orders_it_reads(
        capsys, monkeypatch):
    # the Weyl connection reads them to first order, the shifted Ricci form
    # their values, and r only its value: [1, 0, 1], where r took order 2
    orders, christoffel = [], ProjectiveSurface.christoffel_jets

    def spy(self, point, order):
        orders.append(order)
        return christoffel(self, point, order)
    monkeypatch.setattr(ProjectiveSurface, "christoffel_jets", spy)
    code, _ = run(capsys, "divisor2", str(SCENES / "divisor2_roots.json"))
    assert code == 0
    assert orders == [1, 0, 1]


def test_killing_fields_share_the_christoffels(capsys, monkeypatch,
                                               tmp_path):
    # a second field adds no solve: the Christoffels, and the order-0
    # metric solve behind them, are computed once per command
    scene = json.loads((SCENES / "nullkahler_hk.json").read_text())
    scene["fields"]["L"] = ["0", "0", "0", "1"]
    path = tmp_path / "two_fields.json"
    path.write_text(json.dumps(scene))
    code, report, solves, field_evaluations = _run_spied(
        capsys, monkeypatch, "killing", path)
    assert solves == [(0, (4, 4))]
    assert field_evaluations == 1
    assert [(c["name"], c["verdict"]) for c in report["checks"]] == [
        ("conformal_killing[K]", True), ("conformal_killing[L]", False)]
    assert code == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_infinite_ward_transport_fails_without_a_warning(capsys, tmp_path):
    # rho = (-1e5, 0) carries the section to inf at both step sizes, so
    # their difference is inf - inf: NaN, formed on Python floats, where
    # numpy's scalar subtract warned "invalid value" on stderr
    code, out, err = _run_edited(
        capsys, tmp_path, "ward", "ward",
        lambda scene: scene["ward"].update(rho=["-1e5", "0"]))
    assert code == 1 and err == ""
    report = json.loads(out)
    [check] = report["checks"]
    assert check["name"] == "transport_convergence"
    assert math.isnan(check["value"]) and check["verdict"] is False
    assert report["fitted"]["transport"] == math.inf


@pytest.mark.parametrize("content,path", [
    (b"\xff\xfe\x00", "scene.json"),   # not UTF-8, -16 or -32
    (b"{}", "scene\x00.json"),         # a NUL in the path
])
def test_an_unreadable_scene_is_a_scene_error(capsys, tmp_path, content,
                                              path):
    # both used to end in a traceback (UnicodeDecodeError, ValueError)
    (tmp_path / "scene.json").write_bytes(content)
    code = main(["verify-lax", str(tmp_path / path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("scene error: cannot read scene ")
    assert err.count("\n") == 1


# 401 digits: json reads an int, the schema's number admits it, and
# float() of it raises OverflowError
HUGE = 10**400


@pytest.mark.parametrize("command,name,edit", [
    ("verify-lax", "flat",
     lambda scene: scene["tolerances"].update(lax=HUGE)),
    ("verify-lax", "flat",
     lambda scene: scene["sampling"]["box"].update(x=[-HUGE, 1])),
    ("ward", "ward", lambda scene: scene["ward"].update(length=HUGE)),
    ("ward", "ward", lambda scene: scene["ward"].update(step=HUGE)),
    ("congruence", "burgers",
     lambda scene: scene["sampling"]["exclusions"][0].update(guard=HUGE)),
    ("killing", "flat",
     lambda scene: scene["fields"].update(K=[0, 0, HUGE, 0])),
    ("verify-lax", "flat",
     lambda scene: scene["sampling"].update(seed=HUGE)),
], ids=["tolerance", "box", "ward-length", "ward-step", "guard",
        "killing-field", "seed"])
def test_an_integer_too_large_for_a_float_is_a_scene_error(
        capsys, tmp_path, command, name, edit):
    # the first six ended in an OverflowError traceback with exit 1; a seed
    # of that size ran
    code, out, err = _run_edited(capsys, tmp_path, command, name, edit)
    assert code == 2 and out == ""
    assert err == (f"scene error: cannot read scene {tmp_path / name}.json: "
                   "an integer of 401 digits does not fit a float\n")


class TestOneParserAndValidatorsPerProcess:
    """The parser and the compiled schema checks are made once a process;
    nothing a command reads or parses is kept for the next one."""

    DIVISOR2 = str(SCENES / "divisor2_roots.json")

    def test_a_tol_override_is_not_kept(self, capsys):
        code, report = run(capsys, "divisor2", self.DIVISOR2,
                           "--tol", "divisor2=1e-300")
        assert code == 1
        code, report = run(capsys, "divisor2", self.DIVISOR2)
        assert code == 0
        assert {c["tolerance"] for c in report["checks"]
                if c["name"] == "weyl_connection_consistency"} == {
            TOLERANCES["divisor2"]}

    def test_an_argument_error_leaves_the_next_call_alone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divisor2", self.DIVISOR2, "--samples", "0", "--seed", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, report = run(capsys, "divisor2", self.DIVISOR2)
        scene = json.loads(Path(self.DIVISOR2).read_text())
        assert code == 0
        assert report["samples"] == scene["sampling"]["count"]
        assert report["seed"] == scene["sampling"]["seed"]

    def test_a_scene_edited_to_be_invalid_is_read_again(self, capsys,
                                                         tmp_path):
        scene = json.loads(Path(self.DIVISOR2).read_text())
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code, _ = run(capsys, "divisor2", str(path))
        assert code == 0
        scene["sampling"]["count"] = 0
        path.write_text(json.dumps(scene))
        code = main(["divisor2", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"scene error: scene {path} invalid: ")

    def test_the_parser_and_each_schema_are_built_once(self, capsys,
                                                       monkeypatch):
        compiled = []
        compile_ = cli._compile

        def counting(schema, root):
            compiled.append(schema)
            return compile_(schema, root)
        monkeypatch.setattr(cli, "_compile", counting)
        cli._parser.cache_clear()
        cli._validator.cache_clear()
        run(capsys, "batch", str(SCENES / "batch.json"))
        first = len(compiled)
        for _ in range(2):
            run(capsys, "batch", str(SCENES / "batch.json"))
        assert cli._parser.cache_info().misses == 1
        # the scene and the report schema, each compiled once; a batch
        # validates its own scene and each sub-scene with the same check
        assert cli._validator.cache_info().misses == 2
        assert cli._validator.cache_info().hits == 3 * 7 - 2
        assert first > 2 and len(compiled) == first


# (1e200*x)^2 overflows to inf, so this entry is inf - inf = NaN
NAN_ENTRY = "(1e200*x)^2 - (1e200*x)^2"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["flat", "nullkahler_hk"])
def test_a_gauge_flag_decided_from_nan_fails(capsys, tmp_path, name):
    # NaN < tol is False, which used to decide each flag as if its value
    # were large, and every flag check passed with no expected flags
    def edit(scene):
        scene["pair"]["alpha0"][0] = NAN_ENTRY
        scene["sampling"]["count"] = 4
    code, out, _ = _run_edited(capsys, tmp_path, "gauge-report", name, edit)
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    values, flags = report["fitted"]["values"], report["fitted"]["flags"]
    for value in ("div_max", "div_fiber_dependence", "alpha_z_curvature"):
        assert math.isnan(values[value])
    checks = {c["name"]: c for c in report["checks"]}
    for flag in ("sdiff2", "hdiff2", "aff1_translational"):
        assert flags[flag] is None
        check = checks[f"flag[{flag}]"]
        assert math.isnan(check["value"]) and check["verdict"] is False
    if name == "flat":
        # phi's divergence is 0.0, so its flag is still decided
        assert values["phi_div_max"] == 0.0 and flags["phi_sdiff"] is True
        assert checks["flag[phi_sdiff]"]["verdict"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divisor2_equivalences_decided_from_nan_fail(capsys, tmp_path):
    # both sides of each equivalence read NaN < tol = False, so they
    # agreed, and the two equivalence checks passed
    def edit(scene):
        scene["divisor2"][0]["rho"] = [NAN_ENTRY, "0"]
    code, out, _ = _run_edited(capsys, tmp_path, "divisor2",
                               "divisor2_roots", edit)
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("sym_equivalence", "skew_equivalence"):
        assert math.isnan(checks[name]["value"])
        assert checks[name]["verdict"] is False
    assert set(report["fitted"]["verdicts"].values()) == {None}


NINES = "9" * 400


@pytest.mark.parametrize("command,name,edit,offset", [
    ("build-twistfree", "twistfree",
     lambda scene: scene["build"].update(beta="y^" + NINES), 2),
    ("build-twistfree", "twistfree",
     lambda scene: scene["build"].update(beta="y^-" + NINES), 3),
    ("projective-field", "projective_field",
     lambda scene: scene["surface_fields"].update(V=["x^" + NINES, "0"]), 2),
], ids=["beta", "beta-negative", "surface-field"])
def test_an_exponent_too_large_for_a_float_is_a_scene_error(
        capsys, tmp_path, command, name, edit, offset):
    # the positive ones ended in an OverflowError traceback with exit 1
    code, out, err = _run_edited(capsys, tmp_path, command, name, edit)
    assert code == 2 and out == ""
    assert err == ("scene error: an exponent of 400 digits does not fit a "
                   f"float (at offset {offset})\n")


@pytest.mark.parametrize("entry", [
    "(" * 400 + "x" + ")" * 400,
    "sin(" * 400 + "x" + ")" * 400,
    "+".join(["x"] * 1000),
    "-" * 1000 + "x",
], ids=["parentheses", "calls", "sum", "negations"])
def test_an_expression_nested_too_deeply_is_a_scene_error(capsys, tmp_path,
                                                          entry):
    # each ended in a RecursionError traceback with exit 1
    def edit(scene):
        scene["pair"]["alpha0"][0] = entry
    code, out, err = _run_edited(capsys, tmp_path, "verify-lax", "flat", edit)
    assert code == 2 and out == ""
    assert err == "scene error: an expression is nested too deeply\n"


def test_a_scene_nested_too_deeply_is_a_scene_error(capsys, tmp_path):
    # json.loads raised RecursionError, a traceback with exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code = main(["verify-lax", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"scene error: cannot read scene {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["congruence", "verify-lax",
                                     "curvature"])
@pytest.mark.parametrize("box", ["[-1, 1e400]", "[-1e400, 1e400]",
                                 "[-1e308, 1e308]"])
def test_a_box_bound_must_be_finite(capsys, tmp_path, command, box):
    # JSON reads 1e400 as inf: every run passed, on samples at inf or NaN
    # (congruence wrote "probe": [Infinity, ...]); the width of the last
    # box overflows
    scene = json.loads((SCENES / "flat.json").read_text())
    scene["sampling"]["box"]["x"] = "BOX"
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(scene).replace('"BOX"', box))
    code = main([command, str(path), "--samples", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("scene error: box interval for x must have finite bounds "
                   "and width\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("number", ["1e400", "-Infinity", "NaN"])
def test_a_field_component_must_be_finite(capsys, tmp_path, number):
    # JSON reads these as non-finite floats; with 1e400 killing printed
    # three numpy "invalid value" warnings and exited 1
    scene = json.loads((SCENES / "flat.json").read_text())
    scene["fields"]["K"] = [0, 0, "N", 0]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(scene).replace('"N"', number))
    code = main(["killing", str(path), "--samples", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"scene error: the number {float(number)} is not finite\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["verify-lax", "certify-selfdual"])
def test_a_number_literal_too_large_for_a_float_is_a_scene_error(
        capsys, tmp_path, command):
    # the parser read 1e400 as inf: verify-lax printed two numpy "invalid
    # value" warnings, certify-selfdual three, and both exited 1
    scene = json.loads((SCENES / "flat.json").read_text())
    scene["pair"]["alpha0"] = ["1e400*x", "0"]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(scene))
    code = main([command, str(path), "--samples", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("scene error: bad pair data: a number literal of 5 "
                   "characters does not fit a float (at offset 0)\n")
