"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dalg"


def _unused_imports(tree):
    """(line, name) of each name a module imports but never loads.

    Names listed in a module-level __all__ count as used (re-exports).
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_helper_sees_a_dead_import():
    tree = ast.parse("import os\nfrom math import comb, gcd\n"
                     "__all__ = ['gcd']\nprint(comb)\n")
    assert _unused_imports(tree) == [(1, "os")]


def test_no_unused_imports_in_package():
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: dead for name, dead in found.items() if dead} == {}


def _orphaned_private(trees):
    """(module, name) of each private function or method, defined at
    module or class level, whose name no module loads.

    trees maps module names to parsed modules; a name counts as loaded
    when it is read as a plain name or as an attribute anywhere in them.
    Dunder methods are called by Python itself and are never flagged.
    """
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__")))

    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(mod, f.name) for f in body if private(f)]
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return sorted(d for d in defined if d[1] not in used)


def test_orphan_helper_sees_dead_private_code():
    a = ast.parse("def _dead(): pass\n"
                  "def _used(): pass\n"
                  "class K:\n"
                  "    def __init__(self): self._go()\n"
                  "    def _go(self): pass\n"
                  "    def _stale(self): pass\n")
    b = ast.parse("from a import _used\n_used()\n")
    assert _orphaned_private({"a": a, "b": b}) == [("a", "_dead"), ("a", "_stale")]


def test_no_orphaned_private_helpers_in_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 10
    assert _orphaned_private(trees) == []


def _floats(tree):
    """(line, text) of each float literal and each float(...) call."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, float):
            found.append((n.lineno, repr(n.value)))
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id == "float"):
            found.append((n.lineno, "float()"))
    return sorted(found)


def test_float_helper_sees_literals_and_calls():
    tree = ast.parse("a = 1.5\nb = float(a)\nc = 2\nd = [1e3]\n"
                     "e = '0.5'\nf = 3 // 2\n")
    assert _floats(tree) == [(1, "1.5"), (2, "float()"), (4, "1000.0")]


def test_no_float_in_package():
    # the package is exact: no float may enter a result path
    found = {path.name: _floats(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
