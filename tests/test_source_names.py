"""The package holds no code that only the tests use, and reduces a
residual in one place.

Every top-level function, class and assignment of `src/sdconformal` must
be read by name somewhere in the package, or be exported through an
`__all__` list.  A name that only a test reads belongs in the tests
(`tests/oracles.py` holds such helpers).

A residual function returns its unreduced array, and the command line
turns it into a report number with `jets.max_abs`.  Only `cli` and the
library functions that decide a flag, a verdict or a build precondition
from a maximum call that reducer.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sdconformal"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree):
    """The names a module's top-level statements bind, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read(tree):
    """The names a module loads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_top_level_name_is_read_in_the_package():
    trees = _trees()
    read = set().union(*map(_read, trees.values()),
                       *map(_exported, trees.values()))
    unread = [f"{module}:{name}" for module, tree in trees.items()
              for name in _defined(tree) if name not in read]
    assert unread == []


# the library functions that reduce a maximum themselves, to decide with it
DECIDERS = {
    "minitwistor:divisor_two_report",     # the curvature dichotomy verdicts
    "pairs:_quadrature_residuals",        # dw_quadrature_build's checks
    "pairs:dw_quadrature_build",          # its congruence precondition
    "pairs:gauge_reduction_report",       # the gauge flags
    "pairs:twist_free_normal_form",       # its congruence precondition
}


def _reduces(node):
    """Whether the subtree calls a max-abs reducer, whatever its spelling."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if "maxabs" in name.replace("_", "").lower():
                return True
    return False


def _reducers(module, tree):
    """`module:function` (`module:Class.method`) for each top-level
    function or method that calls a reducer; `module:` for module code."""
    found = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            found |= {f"{module}:{top.name}.{fn.name}" for fn in top.body
                      if _reduces(fn)}
        elif _reduces(top):
            found.add(f"{module}:{getattr(top, 'name', '')}")
    return found


def test_only_the_cli_and_the_deciders_reduce_residuals():
    found = set().union(*(_reducers(path[:-3], tree)
                          for path, tree in _trees().items()))
    assert {f for f in found if not f.startswith("cli:")} == DECIDERS


# Only `jets` knows the coefficient layout of a jet (slot 0 the value,
# slots 1..n the gradient, a lower order a prefix).  Tensor code indexes
# and moves batch axes on `Jet`s; outside `jets` only the elimination
# kernel, which swaps rows in place per point, and the expression
# compiler read coefficient arrays.
LAYOUT_READERS = {
    "coeffs": {"conformal:jet_gauss_solve", "conformal:_eliminate",
               "conformal:MetricBuilder.jets", "expr:_fold",
               "expr:jets_at"},
    "Jet": {"conformal:jet_gauss_solve", "conformal:_eliminate",
            "conformal:MetricBuilder.jets"},
    "product": {"conformal:_eliminate"},
}


def _layout_uses(node):
    """The layout names the subtree uses: `.coeffs` read or written,
    `Jet(...)` constructed and `.product(...)` called."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr == "coeffs":
            used.add("coeffs")
        elif isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in ("Jet", "product"):
                used.add(name)
    return used


def _layout_users(module, tree):
    """For each layout name, the `module:function` (`module:Class.method`,
    `module:` for module code) that use it."""
    found = {name: set() for name in LAYOUT_READERS}
    for top in tree.body:
        cls = isinstance(top, ast.ClassDef)
        for node in top.body if cls else [top]:
            where = (f"{top.name}." if cls else "") + getattr(node, "name", "")
            for name in _layout_uses(node):
                found[name].add(f"{module}:{where}")
    return found


def test_only_jets_and_the_elimination_kernel_read_the_coefficient_layout():
    found = {name: set() for name in LAYOUT_READERS}
    for path, tree in _trees().items():
        if path != "jets.py":
            for name, users in _layout_users(path[:-3], tree).items():
                found[name] |= users
    assert found == LAYOUT_READERS
