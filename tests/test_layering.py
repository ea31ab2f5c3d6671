import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qball

SYMBOLIC = ["scalars", "algebra", "rewrite", "parsing", "sampling"]
FORBIDDEN = {"numpy", "scipy", "norms", "representations"}


def _imported_modules(path):
    """Top-level names of every module an import statement in path names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", SYMBOLIC)
def test_symbolic_layer_imports_no_numerics(module):
    path = pathlib.Path(qball.__file__).with_name(f"{module}.py")
    assert not _imported_modules(path) & FORBIDDEN


@pytest.mark.parametrize("module", SYMBOLIC)
def test_symbolic_layer_imports_no_fractions(module):
    """Coefficients are Gaussian-integer numerators over one denominator;
    a Fraction round trip would hold each coefficient in a second form."""
    path = pathlib.Path(qball.__file__).with_name(f"{module}.py")
    assert "fractions" not in _imported_modules(path)


def _modules_after(statement):
    """Names of the modules a fresh interpreter has loaded after running
    statement."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(qball.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1].split()


def _graph_and_arpack_modules_after(statement):
    """Which of scipy.sparse.csgraph and scipy.sparse.linalg a fresh
    interpreter has loaded after running statement."""
    return str([m for m in _modules_after(statement)
                if m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg')])


def _scipy_modules_after(statement):
    return [m for m in _modules_after(statement)
            if m == "scipy" or m.startswith("scipy.")]


def test_cli_import_leaves_graph_and_arpack_modules_unloaded():
    """Loaded at import time, csgraph and sparse.linalg would add ~0.1 s to
    every CLI start."""
    assert _graph_and_arpack_modules_after("import qball.cli") == "[]"


def test_maxprinciple_run_leaves_graph_and_arpack_modules_unloaded():
    """The kernel labels components in numpy and imports sparse.linalg only
    for a component above _DENSE_LIMIT, so a desk-scale run loads neither."""
    assert _graph_and_arpack_modules_after(
        "from qball.cli import main; main(['maxprinciple', '--n', '2', "
        "'--expr', 'z1+z2'])") == "[]"


def test_cli_import_loads_no_scipy():
    """The generators are index maps in numpy; scipy would add ~0.25 s to
    every CLI start."""
    assert _scipy_modules_after("import qball.cli") == []


def test_maxprinciple_run_loads_no_scipy():
    """scipy.sparse is imported only for a component above _DENSE_LIMIT."""
    assert _scipy_modules_after(
        "from qball.cli import main; main(['maxprinciple', '--n', '2', "
        "'--expr', 'z1+z2'])") == []
