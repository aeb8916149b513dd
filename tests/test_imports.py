"""Imports and exports of the deadcore package.

Every name a deadcore module imports is used in that module: an `ast`
scan in place of pyflakes, where a module's imported names must each
appear as a name, as the root of an attribute chain, or in `__all__`.
The package `__init__` is exempt, since re-exporting is what its imports
are for; it must export exactly the modules' `__all__` names.  The
benchmark in `perfbench/` reaches into the package by name, and those
names must resolve.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deadcore
import deadcore.cli  # noqa: F401  (the benchmark calls dc.cli.main)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deadcore"
MODULES = ("operators", "grids", "dirichlet", "eigen", "solver", "analysis",
           "oracle")


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


def test_package_exports_exactly_the_modules_all():
    exported = {name for name, value in vars(deadcore).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    declared = set()
    for mod in MODULES:
        declared.update(importlib.import_module("deadcore." + mod).__all__)
    assert sorted(SRC.glob("*.py")) == sorted(
        SRC / (m + ".py") for m in MODULES + ("__init__", "cli"))
    assert exported == declared


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def _dc_chains(path):
    """Every dotted attribute chain rooted at the name `dc` in a file."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id == "dc":
            chains.add(".".join(reversed(attrs)))
    return chains


def test_benchmark_hooks_resolve():
    # the instrumented layers (TARGETS) and every dc.* name the workloads use
    for modname, attr, kind in _load("instrument").TARGETS:
        assert kind in ("span", "leaf")
        assert callable(_resolve(importlib.import_module("deadcore." + modname),
                                 attr)), (modname, attr)
    _load("workloads")
    chains = _dc_chains(ROOT / "perfbench" / "workloads.py")
    assert "solve" in chains and "cli.main" in chains
    for chain in sorted(chains):
        _resolve(deadcore, chain)


def test_benchmark_leaves_are_called_through_their_bindings(monkeypatch):
    # the traced benchmark counts operators.eigenvalues under pucci and
    # Scheme.upwind_mag2 under the gradient factor; it wraps the module
    # binding and the class attribute, so those calls must go through them
    from deadcore import operators
    from deadcore.grids import Scheme
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "eigenvalues", counted(operators.eigenvalues))
    monkeypatch.setattr(Scheme, "upwind_mag2", counted(Scheme.upwind_mag2))
    deadcore.pucci(np.eye(2), 1.0, 2.0, "+")
    grid = deadcore.Grid.interval(0.0, 1.0, 9)
    Scheme(grid, deadcore.OperatorSpec.pucci_plus(1.0, 2.0), 1.0) \
        .grad_factor(np.zeros(grid.shape))
    assert calls == ["eigenvalues", "upwind_mag2"]


def _fresh(code):
    """Standard output of code run in a fresh interpreter on this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip()


def test_package_import_leaves_scipy_sparse_out():
    # policy matrices are banded arrays that LAPACK solves directly, so
    # neither the package nor its CLI needs scipy.sparse at start-up; and
    # dirichlet loads scipy's LAPACK extension by itself, so scipy.linalg's
    # __init__, and the numpy.f2py it pulls in, stay out too.  numpy.random,
    # which numpy loads lazily, comes with check_axioms
    loaded = _fresh("import sys, deadcore, deadcore.cli; "
                    "print(' '.join(sorted(sys.modules)))").split()
    assert [m for m in loaded if m.startswith("scipy.sparse")] == []
    assert [m for m in loaded if m.split(".")[:2] == ["scipy", "linalg"]] \
        == ["scipy.linalg._flapack"]
    assert [m for m in loaded if m.split(".")[:2] == ["numpy", "f2py"]] == []
    assert "numpy.random" in loaded


@pytest.mark.parametrize("first", ["deadcore", "scipy.linalg"])
def test_lapack_wrappers_are_scipys(first):
    # the wrappers dirichlet solves with are the objects scipy.linalg.lapack
    # exports, whichever of the two is imported first
    second = "scipy.linalg" if first == "deadcore" else "deadcore"
    out = _fresh("import %s, %s; import scipy.linalg.lapack as lapack; "
                 "from deadcore import dirichlet; "
                 "print(dirichlet.dgtsv is lapack.dgtsv, "
                 "dirichlet.dgbsv is lapack.dgbsv)" % (first, second))
    assert out == "True True"


def test_lapack_loader_names_the_directory(tmp_path):
    from deadcore import dirichlet
    with pytest.raises(ImportError, match="_flapack extension in %s"
                       % re.escape(str(tmp_path))):
        dirichlet._load_flapack(str(tmp_path))
