"""Source hygiene: every name a library module imports is used in it, numpy is
reached through its public API only, and no heavy scipy module is loaded."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "localagg"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nfrom os import path, sep\nsep\n"
    assert _unused_imports(source) == ["json (line 2)", "path (line 3)"]


# numpy's private modules: absent or renamed across the numpy versions
# pyproject.toml allows (numpy.core became numpy._core in 2.0)
PRIVATE_NUMPY = ("_core", "core")


def _private_numpy(source: str) -> list[str]:
    """Imports of, attribute reaches into and module names of private numpy."""
    tree = ast.parse(source)

    def private(dotted: str) -> bool:
        parts = dotted.split(".")
        return parts[0] == "numpy" and len(parts) > 1 and parts[1] in PRIVATE_NUMPY

    numpy_names = {"numpy"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if private(alias.name):
                    hits.append(f"import {alias.name} (line {node.lineno})")
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            if private(node.module) or any(map(private, names)):
                hits.append(f"from {node.module} import (line {node.lineno})")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and private(node.value)):
            hits.append(f"{node.value!r} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in PRIVATE_NUMPY
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            hits.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_public_numpy_only(path):
    assert _private_numpy(path.read_text()) == []


def test_scan_flags_private_numpy():
    source = ("import numpy as np\nimport numpy._core.umath as um\nfrom numpy.core import umath\n"
              "from numpy import _core\nclip = np._core.umath.clip\nnp.core\n"
              "importlib.import_module('numpy._core.umath')\nnp.clip\nnumpy.core_ish = 1\n")
    assert _private_numpy(source) == [
        "'numpy._core.umath' (line 7)", "from numpy import (line 4)",
        "from numpy.core import (line 3)", "import numpy._core.umath (line 2)",
        "np._core (line 5)", "np.core (line 6)"]


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial adds about 5.7 MB of resident memory to every process
    # that imports localagg; the geometric builder does without it
    code = "import sys, localagg; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def _optimize_imports(source: str) -> list[str]:
    """Imports of scipy.optimize or any of its submodules, at any depth."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.")
               for name in names):
            hits.append(f"line {node.lineno}")
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_scipy_optimize(path):
    # importing scipy.optimize raised perfbench peak_rss_mb by 16.7 MB on
    # blind-community (69.1 -> 85.9 MB, +24 %); the exact LP (linprog/HiGHS)
    # stays a test-only oracle and recon finishes l1 solves with its own simplex
    assert _optimize_imports(path.read_text()) == []


def test_scan_flags_scipy_optimize():
    source = ("import scipy.optimize\nfrom scipy import optimize\n"
              "from scipy.optimize import linprog\n"
              "def f():\n    import scipy.optimize._linprog as lp\n"
              "from scipy import linalg\nimport scipy.optimizer_ish\n")
    assert _optimize_imports(source) == ["line 1", "line 2", "line 3", "line 5"]


def test_cli_names_no_experiment_kind():
    # the experiment kinds live in harness.EXPERIMENTS; the command line reads
    # them from there, so adding a kind does not touch it
    from localagg.harness import EXPERIMENTS
    strings = [node.value for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if any(kind in s for kind in EXPERIMENTS)] == []
