"""Spans around the public functions of each sdconformal layer.

The program is not changed: each public function is wrapped from here,
patched under the name its caller looks up (``sdconformal.cli.lax_residual``
and ``sdconformal.conformal.lax_residual`` are separate bindings of one
function, and ``Jet.__mul__`` is patched on the class).  A span records
name, start, end, parent span and command id in flat arrays, which are
written to a file when the traced process ends.
"""

import dataclasses
import importlib
import json
import time
from array import array

import numpy as np

# (span name, module or class path, attribute).  Targets missing from the
# program are skipped, so a later refactor that drops a binding only
# zeroes its counters instead of breaking the traced run.
TARGETS = [
    ("jets.mul", "jets.Jet", "__mul__"),
    ("jets.mul", "jets.Jet", "__rmul__"),
    ("jets.addsub", "jets.Jet", "__add__"),
    ("jets.addsub", "jets.Jet", "__radd__"),
    ("jets.addsub", "jets.Jet", "__sub__"),
    ("jets.addsub", "jets.Jet", "__rsub__"),
    ("jets.compose", "jets.Jet", "compose"),
    ("jets.gradient", "jets.Jet", "gradient"),
    ("jets.derivative", "jets.Jet", "derivative"),
    ("jets.truncate", "jets.Jet", "truncate"),
    ("expr.parse", "expr", "parse"),
    ("expr.parse", "cli", "parse"),
    ("expr.parse", "conformal", "parse"),
    ("expr.parse", "pairs", "parse"),
    ("expr.parse", "projective", "parse"),
    ("expr.parse", "minitwistor", "parse"),
    ("conformal.metric_jets", "conformal.MetricBuilder", "jets"),
    ("conformal.jet_gauss_solve", "conformal", "jet_gauss_solve"),
    ("conformal.jet_gauss_solve", "minitwistor", "jet_gauss_solve"),
    ("conformal.christoffel_jets_4d", "conformal", "christoffel_jets_4d"),
    ("conformal.curvature_report", "conformal", "curvature_report"),
    ("conformal.curvature_report", "cli", "curvature_report"),
    ("conformal.frame_values", "conformal", "frame_values"),
    ("conformal.killing_report", "cli", "killing_report"),
    ("pairs.lax_residual", "cli", "lax_residual"),
    ("pairs.lax_residual", "conformal", "lax_residual"),
    ("pairs.bracket_at", "pairs.LaxPair", "bracket_at"),
    ("pairs.projective_pair_residual", "cli", "projective_pair_residual"),
    ("pairs.build", "cli", "twist_free_normal_form"),
    ("pairs.build", "cli", "dw_quadrature_build"),
    ("pairs.gauge_reduction_report", "cli", "gauge_reduction_report"),
    ("projective.christoffel_jets", "projective.ProjectiveSurface",
     "christoffel_jets"),
    ("projective.ricci_values", "projective.ProjectiveSurface",
     "ricci_values"),
    ("projective.congruence_residual", "projective.ProjectiveSurface",
     "congruence_residual"),
    ("minitwistor.divisor_two_report", "cli", "divisor_two_report"),
    ("minitwistor.projective_field_residual", "cli",
     "projective_field_residual"),
    ("minitwistor.ward_transport", "cli", "ward_transport"),
    ("sampling.halton_points", "cli", "halton_points"),
    ("cli.load_scene", "cli", "load_scene"),
    ("cli.run_command", "cli", "run_command"),
]
EVALUATE_CALLERS = ("expr", "conformal", "pairs", "projective", "minitwistor",
                    "sampling")
JET_OPS = ("jets.mul", "jets.addsub", "jets.compose", "jets.gradient",
           "jets.derivative", "jets.truncate")


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.nested = array("b")
        self._stack = [-1]
        self._depth = []
        self.command_id = -1
        self.evaluate_nodes = 0
        self._tree_sizes = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        """`fn` with a span named `name` around every call.  A span nested
        in a span of the same name is marked, so inclusive times count
        only the outermost one."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        tracer = self

        def span(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.command.append(tracer.command_id)
            tracer.nested.append(depth[nid] > 0)
            tracer.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        return span

    def tree_size(self, e):
        """Node count of an Expression tree, walked once per tree (the
        tree is kept alive so its id cannot be reused)."""
        node = getattr(e, "node", e)
        hit = self._tree_sizes.get(id(node))
        if hit is not None:
            return hit[1]
        size, todo = 0, [node]
        while todo:
            n = todo.pop()
            size += 1
            for field in dataclasses.fields(n):
                child = getattr(n, field.name)
                if dataclasses.is_dataclass(child):
                    todo.append(child)
        self._tree_sizes[id(node)] = (node, size)
        return size

    def wrap_evaluate(self, fn):
        span = self.wrap("expr.evaluate", fn)
        tracer = self

        def evaluate(e, *args, **kwargs):
            tracer.evaluate_nodes += tracer.tree_size(e)
            return span(e, *args, **kwargs)
        return evaluate

    def save(self, path, extra=None):
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 command=np.frombuffer(self.command, dtype=np.int32),
                 nested=np.frombuffer(self.nested, dtype=np.int8),
                 meta=json.dumps({"names": self.names,
                                  "evaluate_nodes": self.evaluate_nodes,
                                  **(extra or {})}))


class _SchemaProxy:
    """Stands in for the ``jsonschema`` module inside ``sdconformal.cli``
    so that only the CLI's own validate calls are spanned."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


def _resolve(path):
    """The sdconformal module or class at `path`, or None if it is gone."""
    module, _, cls = path.partition(".")
    try:
        obj = importlib.import_module(f"sdconformal.{module}")
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj


def install(tracer):
    """Patch every target; returns the wrapped ``cli.main``."""
    for name, owner_path, attr in TARGETS:
        owner = _resolve(owner_path)
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)   # not an inherited attribute
        else:
            fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn))
    for module in EVALUATE_CALLERS:
        owner = _resolve(module)
        if hasattr(owner, "evaluate"):
            owner.evaluate = tracer.wrap_evaluate(owner.evaluate)
    cli = _resolve("cli")
    if hasattr(cli, "jsonschema"):
        cli.jsonschema = _SchemaProxy(
            cli.jsonschema,
            tracer.wrap("cli.schema_validate", cli.jsonschema.validate))
    if hasattr(cli, "build_null_kahler"):
        build = cli.build_null_kahler

        def build_null_kahler(*args, **kwargs):
            built = build(*args, **kwargs)
            built["check"] = tracer.wrap("conformal.null_kahler_check",
                                         built["check"])
            return built
        cli.build_null_kahler = build_null_kahler
    return tracer.wrap("cli.main", cli.main)


# -- aggregation --------------------------------------------------------------

# (metric, span name, statistic); statistic is calls, s (inclusive time of
# outermost spans) or self_s (time minus child spans).
SPAN_METRICS = [
    ("jets.mul.calls", "jets.mul", "calls"),
    ("jets.mul.s", "jets.mul", "s"),
    ("jets.addsub.calls", "jets.addsub", "calls"),
    ("jets.addsub.s", "jets.addsub", "s"),
    ("jets.compose.calls", "jets.compose", "calls"),
    ("jets.compose.s", "jets.compose", "s"),
    ("jets.gradient.calls", "jets.gradient", "calls"),
    ("jets.gradient.s", "jets.gradient", "s"),
    ("jets.derivative.calls", "jets.derivative", "calls"),
    ("jets.derivative.s", "jets.derivative", "s"),
    ("jets.truncate.calls", "jets.truncate", "calls"),
    ("expr.parse.calls", "expr.parse", "calls"),
    ("expr.parse.s", "expr.parse", "s"),
    ("expr.evaluate.calls", "expr.evaluate", "calls"),
    ("expr.evaluate.self_s", "expr.evaluate", "self_s"),
    ("conformal.metric_jets.calls", "conformal.metric_jets", "calls"),
    ("conformal.metric_jets.self_s", "conformal.metric_jets", "self_s"),
    ("conformal.jet_gauss_solve.calls", "conformal.jet_gauss_solve", "calls"),
    ("conformal.jet_gauss_solve.s", "conformal.jet_gauss_solve", "s"),
    ("conformal.christoffel_jets_4d.self_s", "conformal.christoffel_jets_4d",
     "self_s"),
    ("conformal.curvature_report.self_s", "conformal.curvature_report",
     "self_s"),
    ("conformal.frame_values.s", "conformal.frame_values", "s"),
    ("conformal.killing_report.self_s", "conformal.killing_report", "self_s"),
    ("conformal.null_kahler_check.self_s", "conformal.null_kahler_check",
     "self_s"),
    ("pairs.lax_residual.s", "pairs.lax_residual", "s"),
    ("pairs.bracket_at.calls", "pairs.bracket_at", "calls"),
    ("pairs.bracket_at.s", "pairs.bracket_at", "s"),
    ("pairs.projective_pair_residual.s", "pairs.projective_pair_residual",
     "s"),
    ("pairs.build.s", "pairs.build", "s"),
    ("pairs.gauge_reduction_report.s", "pairs.gauge_reduction_report", "s"),
    ("projective.christoffel_jets.calls", "projective.christoffel_jets",
     "calls"),
    ("projective.christoffel_jets.s", "projective.christoffel_jets", "s"),
    ("projective.ricci_values.s", "projective.ricci_values", "s"),
    ("projective.congruence_residual.s", "projective.congruence_residual",
     "s"),
    ("minitwistor.divisor_two_report.self_s",
     "minitwistor.divisor_two_report", "self_s"),
    ("minitwistor.projective_field_residual.self_s",
     "minitwistor.projective_field_residual", "self_s"),
    ("minitwistor.ward_transport.s", "minitwistor.ward_transport", "s"),
    ("sampling.halton_points.calls", "sampling.halton_points", "calls"),
    ("sampling.halton_points.s", "sampling.halton_points", "s"),
    ("cli.load_scene.s", "cli.load_scene", "s"),
    ("cli.schema_validate.s", "cli.schema_validate", "s"),
    ("cli.run_command.s", "cli.run_command", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]


def span_stats(paths):
    """Per span name: calls, inclusive and self seconds, summed over the
    span files of every traced process; plus the evaluate node total."""
    stats, nodes = {}, 0
    for path in paths:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            nodes += meta["evaluate_nodes"]
            dur = data["end"] - data["start"]
            parent = data["parent"].astype(np.int64)
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            own = dur - child
            outer = data["nested"] == 0
            for nid, name in enumerate(meta["names"]):
                mask = data["name"] == nid
                row = stats.setdefault(name, {"calls": 0, "s": 0.0,
                                              "self_s": 0.0})
                row["calls"] += int(mask.sum())
                row["s"] += float(dur[mask & outer].sum())
                row["self_s"] += float(own[mask].sum())
    return stats, nodes


def layer_metrics(stats, nodes, points):
    """The per-layer metric values (everything but cli.import_s and
    trace.overhead_frac, which the caller measures)."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for metric, name, stat in SPAN_METRICS:
        out[metric] = stats.get(name, empty)[stat]
    ops = sum(stats.get(name, empty)["calls"] for name in JET_OPS)
    out["jets.ops_per_point"] = ops / points if points else 0.0
    calls = stats.get("expr.evaluate", empty)["calls"]
    out["expr.nodes_per_evaluate"] = nodes / calls if calls else 0.0
    return out


def import_times(paths):
    """Seconds each traced process spent importing sdconformal.cli."""
    out = []
    for path in paths:
        with np.load(path) as data:
            out.append(json.loads(str(data["meta"]))["import_s"])
    return out


def units(metrics):
    def unit(name):
        if name.endswith(".calls"):
            return "count"
        if name.endswith("_s") or name.endswith(".s"):
            return "s"
        return {"jets.ops_per_point": "ops/point",
                "expr.nodes_per_evaluate": "nodes",
                "trace.overhead_frac": "ratio"}[name]
    return {name: unit(name) for name in metrics}
