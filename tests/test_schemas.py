"""The packaged JSON schemas and the CLI's own validator.

The CLI validates scenes and reports with a small validator that knows
only the keywords the two packaged schemas use, and imports jsonschema
only to word the error of an invalid instance.  These tests pin that it
agrees with jsonschema, that every schema keyword is one it knows, and
that the package runs without the repository around it.
"""

import copy
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

from sdconformal import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdconformal"
SCHEMAS = ("scene.schema.json", "report.schema.json")


def _reference(schema):
    return validator_for(schema)(schema)


def _fast(instance, schema):
    return cli._is_valid(instance, schema, schema)


def _run(args, env_path, cwd):
    env = dict(os.environ, PYTHONPATH=str(env_path))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# -- one copy of each schema, inside the package ----------------------------------

@pytest.mark.parametrize("name", SCHEMAS)
def test_docs_path_resolves_to_the_packaged_schema(name):
    docs = ROOT / "docs" / name
    assert docs.is_symlink() and docs.is_file()
    assert docs.resolve() == (PACKAGE / "schemas" / name).resolve()


@pytest.mark.parametrize("name", SCHEMAS)
def test_packaged_schema_is_a_valid_schema(name):
    schema = cli._schema(name)
    validator_for(schema).check_schema(schema)


def test_copied_package_runs_outside_the_repository(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "lib" / "sdconformal",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    out = work / "report.json"
    where = _run(["-c", "import sdconformal; print(sdconformal.__file__)"],
                 tmp_path / "lib", work)
    assert Path(where.stdout.strip()).is_relative_to(tmp_path / "lib")
    proc = _run(["-m", "sdconformal.cli", "congruence",
                 str(ROOT / "scenes" / "burgers.json"), "--out", str(out)],
                tmp_path / "lib", work)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["pass"] is True


@pytest.mark.parametrize("valid", [True, False])
def test_jsonschema_is_imported_only_for_an_invalid_scene(tmp_path, valid):
    scene = json.loads((ROOT / "scenes" / "burgers.json").read_text())
    if not valid:
        scene["unexpected_key"] = 1
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = ("import sys\nfrom sdconformal.cli import main\n"
            f"code = main(['congruence', {str(path)!r}, '--out', "
            f"{str(tmp_path / 'report.json')!r}])\n"
            "print(code, 'jsonschema' in sys.modules)")
    proc = _run(["-c", code], PACKAGE.parent, tmp_path)
    assert proc.stdout.split() == ["0" if valid else "2", str(not valid)]


# -- the validator knows every keyword of the schemas -----------------------------

# keywords whose argument holds subschemas: a name -> subschema mapping,
# or a single subschema
_MAPS = ("properties", "patternProperties", "$defs")
_SINGLE = ("items", "additionalProperties")


def _unknown_keywords(schema, root, where="#"):
    """Keywords of `schema` and its subschemas that the validator does
    not know, with where they sit; a `$ref` or `type` it cannot follow
    counts as unknown too."""
    if isinstance(schema, bool):
        return []
    found = []
    for key, arg in schema.items():
        at = f"{where}/{key}"
        if key not in cli._KEYWORDS:
            found.append(at)
        elif key in _MAPS:
            for name, sub in arg.items():
                found += _unknown_keywords(sub, root, f"{at}/{name}")
        elif key in _SINGLE:
            found += _unknown_keywords(arg, root, at)
        elif key == "$ref":
            if not (arg.startswith(cli._DEFS)
                    and arg[len(cli._DEFS):] in root.get("$defs", {})):
                found.append(f"{at}={arg}")
        elif key == "type":
            types = [arg] if isinstance(arg, str) else arg
            found += [f"{at}={t}" for t in types if t not in cli._TYPES]
    return found


@pytest.mark.parametrize("name", SCHEMAS)
def test_every_schema_keyword_is_known(name):
    schema = cli._schema(name)
    assert _unknown_keywords(schema, schema) == []


@pytest.mark.parametrize("keyword,arg", [("maximum", 3), ("anyOf", [{}]),
                                         ("format", "uri"), ("const", 1)])
def test_an_unknown_keyword_is_found_and_never_ignored(keyword, arg):
    schema = copy.deepcopy(cli._schema("scene.schema.json"))
    schema["properties"]["sampling"]["properties"]["count"][keyword] = arg
    assert _unknown_keywords(schema, schema) == [
        f"#/properties/sampling/properties/count/{keyword}"]
    # at run time an unknown keyword answers "invalid", which hands the
    # instance to jsonschema instead of passing it unchecked
    scene = json.loads((ROOT / "scenes" / "burgers.json").read_text())
    assert not _fast(scene, schema)


# -- the benchmark's scenes ----------------------------------------------------------

def _bench_scenes():
    """The benchmark's scene generator, `bench/scenes.py`, as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_scenes", ROOT / "bench" / "scenes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_SCENES = _bench_scenes()


@pytest.mark.parametrize("workload", BENCH_SCENES.WORKLOADS)
@pytest.mark.parametrize("seed", range(4))
def test_every_bench_scene_validates(tmp_path, workload, seed):
    # the benchmark validates each scene it writes before it runs any, and
    # stops at the first one the schema rejects
    jobs = BENCH_SCENES.jobs_for(workload, seed, tmp_path, ROOT / "scenes")
    paths = sorted({job.scene for job in jobs})
    assert paths
    for path in paths:
        cli.load_scene(path)


# -- agreement with jsonschema ------------------------------------------------------

def _instances():
    """The checked-in scenes, and the golden reports with a wall time."""
    golden = json.loads((ROOT / "tests" / "golden" / "reports.json")
                        .read_text())
    return {
        "scene.schema.json": [json.loads(path.read_text()) for path in
                              sorted((ROOT / "scenes").glob("*.json"))],
        "report.schema.json": [{**golden[key]["report"], "wall_time": 0.01}
                               for key in sorted(golden)
                               if golden[key]["report"] is not None],
    }


INSTANCES = _instances()
REFERENCE = {name: _reference(cli._schema(name)) for name in SCHEMAS}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.5, math.nan, math.inf]),
    st.floats(allow_nan=True), st.text("01xyzabf^*()\n", max_size=6))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=5),
                    st.dictionaries(st.text("01xy", max_size=3), _SCALARS,
                                    max_size=3))
_KEYS = st.sampled_from(["extra", "name", "fiber", "count", "seed", "x", "y",
                         "010", "012", "0101", "010\n", "phi", "rho", "step",
                         "components", "orientation", "wall_time", "value",
                         "gamma", "spray"])
_DIGEST = "0ee5381346f892dd53b105ae154f124cf59e90ad96dd1eb5bcbbb8e9339bbefc"


def _containers(node, path=()):
    """Paths to every dict and list inside `node`, itself included."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _containers(value, path + (key,))


def _mutate(inst, data):
    """One random edit of `inst` in place."""
    op = data.draw(st.sampled_from(["drop", "add", "swap", "grow", "shrink",
                                    "count", "seed", "digest"]))
    if op in ("count", "seed") and isinstance(inst.get("sampling"), dict):
        inst["sampling"][op] = data.draw(st.one_of(
            st.integers(-3, 2), st.sampled_from([0.0, 1.0, 2.5, True, False])))
        return
    if op == "digest" and "scene_digest" in inst:
        inst["scene_digest"] = data.draw(st.sampled_from([
            _DIGEST + "\n", _DIGEST.upper(), _DIGEST[:-1], _DIGEST + "0",
            "g" + _DIGEST[1:], "\n" + _DIGEST, _DIGEST + "\n\n", 7]))
        return
    path = data.draw(st.sampled_from(list(_containers(inst))))
    node = inst
    for key in path:
        node = node[key]
    if isinstance(node, dict):
        if op == "add" or not node:
            node[data.draw(_KEYS)] = data.draw(_VALUES)
        elif op == "drop":
            del node[data.draw(st.sampled_from(sorted(node)))]
        else:
            node[data.draw(st.sampled_from(sorted(node)))] = data.draw(_VALUES)
    elif op == "shrink" and node:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    elif op == "swap" and node:
        node[data.draw(st.integers(0, len(node) - 1))] = data.draw(_VALUES)
    else:
        node.append(copy.deepcopy(node[0]) if node and data.draw(st.booleans())
                    else data.draw(_VALUES))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fast_validator_agrees_with_jsonschema(data):
    name = data.draw(st.sampled_from(SCHEMAS))
    inst = copy.deepcopy(data.draw(st.sampled_from(INSTANCES[name])))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(inst, data)
    assert _fast(inst, cli._schema(name)) == REFERENCE[name].is_valid(inst)


@pytest.mark.parametrize("name", SCHEMAS)
def test_checked_in_instances_are_valid(name):
    for instance in INSTANCES[name]:
        assert _fast(instance, cli._schema(name))
        assert REFERENCE[name].is_valid(instance)


@pytest.mark.parametrize("schema,instance,valid", [
    ({"type": "number"}, True, False),
    ({"type": "integer"}, True, False),
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, 2.0, True),
    ({"type": "integer"}, 2.5, False),
    ({"type": "number"}, math.nan, True),
    ({"type": "integer"}, math.nan, False),
    ({"enum": [-1, 1]}, 1.0, True),
    ({"enum": [-1, 1]}, True, False),
    ({"enum": [-1, 1]}, "1", False),
    ({"type": "integer", "minimum": 1}, 0, False),
    ({"type": "integer", "minimum": 0}, -0.0, True),
    ({"pattern": "^[0-9a-f]{64}$"}, _DIGEST + "\n", True),
    ({"pattern": "^[0-9a-f]{64}$"}, _DIGEST + "\n\n", False),
    ({"pattern": "[01]"}, "x1y", True),
    ({"patternProperties": {"^[01]{3}$": {"type": "string"}},
      "additionalProperties": False}, {"010\n": "x"}, True),
    ({"patternProperties": {"^[01]{3}$": {"type": "string"}},
      "additionalProperties": False}, {"010": 1}, False),
    ({"patternProperties": {"^[01]{3}$": {"type": "string"}}},
     {"010\n": 1}, False),
    ({"patternProperties": {"^[01]{3}$": {"type": "string"}},
      "additionalProperties": False}, {"0100": "x"}, False),
])
def test_fixed_cases_match_jsonschema(schema, instance, valid):
    assert _fast(instance, schema) is valid
    assert _reference(schema).is_valid(instance) is valid
