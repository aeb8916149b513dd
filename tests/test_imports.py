"""Every name a deadcore module imports is used in that module.

An `ast` scan in place of pyflakes: a module's imported names must each
appear as a name, as the root of an attribute chain, or in `__all__`.
The package `__init__` is exempt, since re-exporting is what its imports
are for.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deadcore"


def unused_imports(source):
    """Names bound by import statements in source and never used there."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_imports():
    src = ("import os\nimport numpy as np\nfrom .a import b, c as d\n"
           "import x.y\n__all__ = ['b']\nprint(np.pi, x.y)\n")
    assert unused_imports(src) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []
