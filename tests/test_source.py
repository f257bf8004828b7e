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
