"""The benchmark's spans bind to the functions they are named after.

`bench/tracing.py` skips a target whose module, class or attribute is
gone, so a refactor that renames a traced function would silently read 0
in that span.  The set of targets it cannot bind is pinned here; the
tracer is loaded by path and nothing is patched.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_tracing():
    """The benchmark's span tracer, `bench/tracing.py`, as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unbound(tracing):
    """The (span, owner, attribute) targets `tracing.install` would skip,
    by its rule: a class's own attribute, or any attribute of a module."""
    out = set()
    for target in tracing.TARGETS:
        _, owner_path, attr = target
        owner = tracing._resolve(owner_path)
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if fn is None:
            out.add(target)
    return out


def test_only_the_known_spans_are_unbound():
    # any other target, such as the surface spans on
    # projective.ProjectiveSurface.christoffel_jets and ricci_values or
    # minitwistor.jet_gauss_solve, is bound
    assert _unbound(_bench_tracing()) == {
        ("expr.parse", "conformal", "parse"),
        ("expr.parse", "pairs", "parse"),
        ("expr.parse", "projective", "parse"),
        ("expr.parse", "minitwistor", "parse"),
        ("conformal.frame_values", "conformal", "frame_values"),
        ("pairs.lax_residual", "conformal", "lax_residual"),
    }

