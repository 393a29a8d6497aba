"""The packaged JSON schemas and the CLI's own validator.

The CLI validates scenes and reports with a small validator that knows
only the keywords the two packaged schemas use and words its own errors
as jsonschema does; jsonschema is a test dependency only.  These tests
pin that it agrees with jsonschema on validity and on the message, that
its wording holds for each keyword even if jsonschema's changes, that
every schema keyword is one it knows, that the package runs without the
repository around it, and that a command loads no module it does not
need.
"""

import ast
import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from sdconformal import cli
import test_fuzz_scenes as fuzz
from test_golden_reports import BENCH_SCENES, GOLDEN_DATA

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdconformal"
SCHEMAS = ("scene.schema.json", "report.schema.json")


def _reference(schema):
    return validator_for(schema)(schema)


def _fast(instance, schema):
    return not cli._compile(schema, schema)(instance)


def _run(args, env_path, cwd, **variables):
    """Python run on `args`; `variables` set environment variables, or
    unset them if None."""
    env = {**os.environ, "PYTHONPATH": str(env_path), **variables}
    env = {name: value for name, value in env.items() if value is not None}
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
    assert proc.stdout.split() == ["0" if valid else "2", "False"]


# Modules a command must not load: OpenSSL (the scene digest uses the
# builtin SHA-256), jsonschema (the CLI words its own schema errors) and
# the heavy test-side packages.  hypothesis loads _hashlib into the pytest
# process, so only a fresh interpreter shows what the package imports.
UNWANTED = ("_hashlib", "_ssl", "jsonschema", "scipy", "sympy")


def test_a_command_loads_no_unwanted_module(tmp_path):
    # an invalid scene (exit 2), then a valid one, in one fresh interpreter
    scene = json.loads((ROOT / "scenes" / "flat.json").read_text())
    scene["sampling"]["count"] = 0
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(scene))
    code = ("import sys\nfrom sdconformal.cli import main\n"
            f"codes = main(['curvature', {str(invalid)!r}]), "
            f"main(['curvature', {str(ROOT / 'scenes' / 'flat.json')!r}"
            f", '--samples', '4', '--out', {str(tmp_path / 'r.json')!r}])\n"
            f"print(*codes, *(m for m in {UNWANTED!r} if m in sys.modules))")
    proc = _run(["-c", code], PACKAGE.parent, tmp_path)
    assert proc.stdout.split() == ["2", "0"], proc.stderr
    assert proc.stderr == (f"scene error: scene {invalid} invalid: 0 is "
                           "less than the minimum of 1\n")


def _openblas_loaded():
    """Whether numpy's BLAS in this process is OpenBLAS (Linux only)."""
    return "openblas" in Path("/proc/self/maps").read_text().lower()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_a_command_runs_in_one_thread_unless_the_user_sets_blas_threads(
        tmp_path, preset):
    # importing numpy started OpenBLAS's pool, one thread per CPU, though
    # the package's BLAS calls take only small matrices
    if not _openblas_loaded():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if preset and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no pool on one CPU")
    code = ("import os\nfrom sdconformal.cli import main\n"
            f"code = main(['curvature', {str(ROOT / 'scenes' / 'flat.json')!r}"
            f", '--samples', '4', '--out', {str(tmp_path / 'r.json')!r}])\n"
            "print(code, len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = _run(["-c", code], PACKAGE.parent, tmp_path,
                OPENBLAS_NUM_THREADS=preset)
    code, threads, variable = proc.stdout.split()
    assert code == "0", proc.stderr
    if preset:
        assert int(threads) > 1 and variable == preset
    else:
        assert threads == "1" and variable == "None"


# -- the process entry: flush, then end without the interpreter's teardown --------

def _failing(tmp_path):
    scene = json.loads((ROOT / "scenes" / "flat.json").read_text())
    scene["pair"]["alpha0"] = ["0.001*w1*w2", "0"]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(scene))
    return ["verify-lax", str(path)]


def _singular(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "name": "singular", "coords": ["x", "y"],
        "congruences": {"bad": "1/(x - x)"},
        "sampling": {"box": {"x": [0.5, 1.5], "y": [1.0, 3.0]},
                     "count": 4, "seed": 0}}))
    return ["congruence", str(path)]


ENTRY_CASES = {
    0: lambda tmp_path: ["certify-selfdual",
                         str(ROOT / "scenes" / "flat.json"),
                         "--samples", "8"],
    1: _failing,
    2: lambda tmp_path: ["verify-lax", str(tmp_path / "missing.json")],
    3: _singular,
}


def _less_wall_time(report):
    return re.sub(r'"wall_time": [^\n]*\n', "", report)


@pytest.mark.parametrize("exit_code", sorted(ENTRY_CASES))
def test_the_process_entry_writes_what_main_writes(capsys, tmp_path,
                                                   exit_code):
    # stdout is a pipe, so block-buffered unless PYTHONUNBUFFERED is set:
    # the entry must flush it before it ends the process
    argv = ENTRY_CASES[exit_code](tmp_path)
    proc = _run(["-m", "sdconformal.cli", *argv], PACKAGE.parent, tmp_path,
                PYTHONUNBUFFERED=None)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, code) == (exit_code, exit_code)
    assert proc.stderr == err and err.count("\n") == (exit_code >= 2)
    assert _less_wall_time(proc.stdout) == _less_wall_time(out)
    assert (out != "") == (exit_code < 2)


def test_the_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    guard, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    call, = [node.value for node in guard.body]
    assert isinstance(call, ast.Call) and not call.args
    assert project["scripts"] == {"sdconformal":
                                  f"sdconformal.cli:{call.func.id}"}
    assert call.func.id != "main"   # main returns; the process entry exits


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
    # compiling rejects an unknown keyword, so no instance passes it
    # unchecked
    with pytest.raises(ValueError, match=keyword):
        cli._compile(schema, schema)


@pytest.mark.parametrize("schema", [
    {"$ref": "other.json#/$defs/expr"}, {"$ref": "#/$defs/missing"},
    {"type": "decimal"}, {"enum": [[1]]}, {"items": False}])
def test_what_the_validator_cannot_word_fails_to_compile(schema):
    with pytest.raises(ValueError):
        cli._compile(schema, schema)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", r).group() for r in requirements]
    assert names(project["dependencies"]) == ["numpy"]
    assert "jsonschema" in names(project["optional-dependencies"]["test"])


# -- the benchmark's scenes ----------------------------------------------------------

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
    """The checked-in scenes, and the golden reports of the runs that read
    them where they are checked in, with a wall time."""
    return {
        "scene.schema.json": [json.loads(path.read_text()) for path in
                              sorted((ROOT / "scenes").glob("*.json"))],
        "report.schema.json": [{**run["report"], "wall_time": 0.01}
                               for key, run in sorted(GOLDEN_DATA.items())
                               if " <tree>/scenes/" in key
                               and run["report"] is not None],
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
    error = best_match(REFERENCE[name].iter_errors(inst))
    assert cli._schema_error(inst, name) == (
        None if error is None else error.message)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_mutations_are_worded_as_jsonschema_words_them(data):
    # the edits of tests/test_fuzz_scenes.py: non-finite numbers, junk
    # values, emptied containers and singular pair entries
    name = data.draw(st.sampled_from(sorted(fuzz.SCENE_DATA)))
    scene = copy.deepcopy(fuzz.SCENE_DATA[name])
    for _ in range(data.draw(st.integers(1, 2))):
        if name in fuzz.PAIR_SCENES and data.draw(st.booleans()):
            fuzz._mutate_pair(scene, data)
        else:
            fuzz._mutate_anywhere(scene, data)
    error = best_match(REFERENCE["scene.schema.json"].iter_errors(scene))
    assert cli._schema_error(scene, "scene.schema.json") == (
        None if error is None else error.message)


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


# -- the CLI's own wording, pinned whatever jsonschema's becomes --------------------

_DROP = object()


def _edited(instance, edits):
    """A copy of `instance` with the value at each path of `edits` set,
    or deleted where it is `_DROP`."""
    instance = copy.deepcopy(instance)
    for path, value in edits.items():
        node = instance
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return instance


@pytest.mark.parametrize("name,edits,message", [
    ("scene.schema.json", {("factor",): [1]},
     "[1] is not of type 'string', 'number'"),
    ("scene.schema.json", {("sampling", "count"): 2.5},
     "2.5 is not of type 'integer'"),
    ("scene.schema.json", {("coords",): ["x", 1, "w1", "w2"]},
     "1 is not of type 'string'"),
    ("scene.schema.json", {("tolerances", "lax"): "x"},
     "'x' is not of type 'number'"),
    ("scene.schema.json", {("sampling",): _DROP},
     "'sampling' is a required property"),
    ("scene.schema.json", {("extra",): 1},
     "Additional properties are not allowed ('extra' was unexpected)"),
    ("scene.schema.json", {("b",): 1, ("a",): 2},
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
    ("scene.schema.json", {("projective", "gamma"): {"2": "x"}},
     "'2' does not match any of the regexes: '^[01]{3}$'"),
    ("scene.schema.json", {("projective", "gamma"): {"2": "x", "0100": "y"}},
     "'0100', '2' do not match any of the regexes: '^[01]{3}$'"),
    ("scene.schema.json", {("distributions", "d"): []},
     "[] should be non-empty"),
    ("scene.schema.json", {("coords",): ["x"]}, "['x'] is too short"),
    ("scene.schema.json", {("coords",): list("abcdef")},
     "['a', 'b', 'c', 'd', 'e', 'f'] is too long"),
    ("scene.schema.json",
     {("metric",): {"components": [["1", "0", "0", "0"]] * 4,
                    "orientation": 2}},
     "2 is not one of [-1, 1]"),
    ("scene.schema.json", {("sampling", "count"): 0},
     "0 is less than the minimum of 1"),
    ("report.schema.json", {("scene_digest",): _DIGEST.upper()},
     f"{_DIGEST.upper()!r} does not match '^[0-9a-f]{{64}}$'"),
    # the shortest path first, then the greatest, then the first found
    ("scene.schema.json", {("extra",): 1, ("sampling", "count"): 0},
     "Additional properties are not allowed ('extra' was unexpected)"),
    ("scene.schema.json", {("pair", "fiber"): "w", ("sampling", "count"): 0},
     "0 is less than the minimum of 1"),
    ("scene.schema.json", {("coords",): _DROP, ("extra",): 1},
     "'coords' is a required property"),
])
def test_schema_errors_are_worded_as_pinned(name, edits, message):
    base = {"scene.schema.json": json.loads((ROOT / "scenes" / "flat.json")
                                            .read_text()),
            "report.schema.json": INSTANCES["report.schema.json"][0]}
    assert cli._schema_error(_edited(base[name], edits), name) == message
