"""The package holds no code that only the tests use.

Every top-level function, class and assignment of `src/sdconformal` must
be read by name somewhere in the package, or be exported through an
`__all__` list.  A name that only a test reads belongs in the tests
(`tests/oracles.py` holds such helpers).
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
