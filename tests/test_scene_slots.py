"""Every expression slot of a scene is read once, and names itself.

A command reads each expression slot it needs with `expr.as_expression`
and the slot's name, so a bad entry ends in one scene-error line that
says where it is.  The slots are found by walking the packaged scene
schema: a slot added to the schema without a row in `SLOTS` below fails
`test_every_schema_slot_has_a_command`.
"""

import json
from pathlib import Path

import pytest

from sdconformal import cli, expr
from sdconformal.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENES = ROOT / "scenes"
EXPR = "#/$defs/expr"


def _slots(node, path, root):
    """The paths of the `#/$defs/expr` slots under the schema `node`:
    keys joined by '.', '*' for any key and '[]' for any item."""
    ref = node.get("$ref")
    if ref == EXPR:
        yield path
    elif ref is not None:
        yield from _slots(root["$defs"][ref.rsplit("/", 1)[1]], path, root)
    for key, sub in node.get("properties", {}).items():
        yield from _slots(sub, f"{path}.{key}" if path else key, root)
    for sub in node.get("patternProperties", {}).values():
        yield from _slots(sub, f"{path}.*", root)
    if isinstance(node.get("additionalProperties"), dict):
        yield from _slots(node["additionalProperties"], f"{path}.*", root)
    if "items" in node:
        yield from _slots(node["items"], f"{path}[]", root)


def _metric(scene):
    scene["metric"] = {"components": [["0", "0", "1", "0"],
                                      ["0", "0", "0", "1"],
                                      ["1", "0", "0", "0"],
                                      ["0", "1", "0", "0"]]}


def _read(command, scene, at, name, setup=None):
    return command, scene, at, name, setup


# schema path -> the runs that read it: (command, scene, where the entry
# is written, the slot's name in the message, an edit made first)
SLOTS = {
    "projective.spray[]": [_read(
        "congruence", "burgers", ("projective", "spray", 2),
        "bad projective data: spray component 2")],
    "projective.gamma.*": [_read(
        "verify-lax", "nullkahler_hk", ("projective", "gamma", "100"),
        "bad projective data: gamma 100")],
    **{f"pair.{slot}[]": [_read(
        "verify-pair", "flat", ("pair", slot, 1),
        f"bad pair data: {slot} component 1")]
       for slot in ("alpha0", "alpha1", "phi0", "phi1")},
    **{f"pair.{slot}": [_read(
        "gauge-report", "flat", ("pair", slot), f"bad pair data: {slot}")]
       for slot in ("c0", "c1")},
    "factor": [_read("certify-selfdual", "nullkahler_hk", ("factor",),
                     "factor")],
    "metric.components[][]": [_read(
        "curvature", "flat", ("metric", "components", 3, 1),
        "metric row 3 component 1", _metric)],
    "fields.*[]": [_read("killing", "flat", ("fields", "K", 2),
                         "killing: field K component 2")],
    "surface_fields.*[]": [_read(
        "projective-field", "projective_field",
        ("surface_fields", "dilation", 0),
        "projective-field: surface field dilation component 0")],
    "distributions.*[][]": [_read(
        "frobenius", "flat", ("distributions", "beta_planes", 1, 3),
        "frobenius: field 1 of beta_planes component 3")],
    "congruences.*": [_read("congruence", "burgers", ("congruences", "radial"),
                            "congruence: congruence radial")],
    "divisor2[].phi[]": [_read(
        "divisor2", "divisor2_trivial", ("divisor2", 1, "phi", 0),
        "divisor2: entry 1 phi component 0")],
    "divisor2[].rho[]": [_read(
        "divisor2", "divisor2_roots", ("divisor2", 0, "rho", 1),
        "divisor2: entry 0 rho component 1")],
    "ward.rho[]": [_read("ward", "ward", ("ward", "rho", 1),
                         "ward: rho component 1")],
    "build.*": [
        *(_read("build-dw", "dw_twist", ("build", key), f"build-dw: build {key}")
          for key in ("gamma", "c", "H", "G")),
        _read("build-twistfree", "twistfree", ("build", "beta"),
              "build-twistfree: build beta"),
        *(_read("build-nullkahler", "nullkahler_random", ("build", key),
                f"build-nullkahler: build {key}") for key in ("a", "c", "f"))],
    # a string the parser reads, not an `expr`
    "sampling.exclusions[].expr": [_read(
        "congruence", "burgers", ("sampling", "exclusions", 0, "expr"),
        "sampling: exclusion 0")],
}
TEXT_ONLY = {"sampling.exclusions[].expr"}


def test_every_schema_slot_has_a_command():
    schema = cli._schema("scene.schema.json")
    assert set(_slots(schema, "", schema)) | TEXT_ONLY == set(SLOTS)


def _run_with(tmp_path, capsys, run, literal):
    """Run `run` on its scene with the entry at its place replaced by the
    JSON text `literal`; the exit code, stdout and stderr."""
    command, name, at, _, setup = run
    scene = json.loads((SCENES / f"{name}.json").read_text())
    if setup is not None:
        setup(scene)
    *keys, last = at
    node = scene
    for key in keys:
        node = node[key]
    node[last] = "@ENTRY@"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scene).replace('"@ENTRY@"', literal))
    code = main([command, str(path), "--samples", "4"])
    out, err = capsys.readouterr()
    return code, out, err


RUNS = [pytest.param(slot, run, id=f"{slot}-{run[0]}-{'.'.join(map(str, run[2]))}")
        for slot, runs in SLOTS.items() for run in runs]


@pytest.mark.parametrize("slot,run", RUNS)
def test_a_number_too_large_for_a_float_names_its_slot(capsys, tmp_path, slot,
                                                       run):
    # JSON reads 1e400 as inf; an exclusion is text, which the parser reads
    text = slot in TEXT_ONLY
    code, out, err = _run_with(tmp_path, capsys, run,
                               '"1e400"' if text else "1e400")
    assert code == 2 and out == ""
    assert err == f"scene error: {run[3]}: " + (
        "a number literal of 5 characters does not fit a float (at offset 0)"
        if text else "the number inf is not finite") + "\n"


@pytest.mark.parametrize("slot,run", RUNS)
def test_malformed_text_names_its_slot(capsys, tmp_path, slot, run):
    code, out, err = _run_with(tmp_path, capsys, run, '"x +"')
    assert code == 2 and out == ""
    assert err.startswith(f"scene error: {run[3]}: ")
    assert err.count("\n") == 1


# -- each slot is parsed once --------------------------------------------------

@pytest.fixture
def parsed(monkeypatch):
    """The source texts `expr.parse` is given, in call order."""
    texts, parse = [], expr.parse

    def spy(source, allowed_vars):
        texts.append(source)
        return parse(source, allowed_vars)
    monkeypatch.setattr(expr, "parse", spy)
    return texts


def test_congruence_parses_each_beta_once(capsys, parsed):
    # the residual and the three multipliers parsed it four times
    scene = json.loads((SCENES / "burgers.json").read_text())
    assert main(["congruence", str(SCENES / "burgers.json")]) == 0
    capsys.readouterr()
    for beta in scene["congruences"].values():
        assert parsed.count(beta) == 1


def test_ward_parses_each_rho_component_once(capsys, parsed):
    # the runs at step and at step/2 parsed it twice
    scene = json.loads((SCENES / "ward.json").read_text())
    assert main(["ward", str(SCENES / "ward.json")]) == 0
    capsys.readouterr()
    for component in scene["ward"]["rho"]:
        assert parsed.count(component) == 1
