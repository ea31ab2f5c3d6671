import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qball

SYMBOLIC = ["scalars", "algebra", "rewrite", "parsing"]
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


def test_cli_import_leaves_graph_and_arpack_modules_unloaded():
    """csgraph and sparse.linalg are imported by operator_norm on first use;
    loaded at import time they would add ~0.1 s to every CLI start."""
    code = ("import sys, qball.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.sparse.csgraph', 'scipy.sparse.linalg')))")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(qball.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
