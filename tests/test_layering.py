import ast
import importlib
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


def test_symbolic_run_loads_no_numerics():
    """import qball loads a module only when one of its names is used, or
    the module itself as an attribute, so parsing, normalizing, printing and
    a confluence check stay numpy-free."""
    loaded = set(_modules_after(
        "import qball; assert qball.rewrite.normalize; "
        + "; ".join(f"import qball.{module}" for module in SYMBOLIC) + "; "
        "from qball import AlgebraContext, normalize, parse_expression, "
        "print_poly; from qball.rewrite import confluent; "
        "f = parse_expression(\"z1'*z1 + q*z2*z1'\", 2); "
        "ctx = AlgebraContext(2, 'sphere'); "
        "assert print_poly(normalize(f, ctx)) and confluent(f, ctx)"))
    assert not loaded & {"numpy", "scipy", "qball.norms",
                         "qball.representations"}


def test_cli_import_loads_the_numeric_layer():
    """A maxprinciple op must not pay numpy's import: qball.cli imports the
    norm layer when it is imported."""
    loaded = set(_modules_after("import qball.cli"))
    assert {"numpy", "qball.norms", "qball.representations"} <= loaded


def test_from_import_loads_the_defining_module():
    assert "qball.norms" in _modules_after("from qball import ball_norm")


# The public names of the package, by defining module.
PUBLIC = {
    "scalars": ["DomainError"],
    "algebra": ["BALL", "SPHERE", "AlgebraContext", "ContextError", "Letter",
                "MatPoly", "NCPoly", "is_holomorphic"],
    "rewrite": ["canonical_monomials", "is_canonical_word", "normalize",
                "normalize_by_steps", "reduce_step"],
    "representations": ["BoundaryConfig", "Entries", "FockConfig",
                        "RepMatrices", "TruncationError",
                        "boundary_block_generators", "certify_compression",
                        "fock_generators", "rep_apply", "rep_entries"],
    "norms": ["GapReport", "NormConvergenceError", "NormEstimate", "ball_norm",
              "boundary_norm", "make_schedule", "max_principle_report",
              "operator_norm", "pbw_gram_min_singular", "relation_residual"],
    "parsing": ["ParseError", "parse_expression", "print_matrix",
                "print_poly"],
}


def test_public_names_resolve_to_their_modules():
    assert sorted(qball.__all__) == sorted(
        name for names in PUBLIC.values() for name in names)
    assert len(qball.__all__) == 38
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"qball.{module}")
        assert getattr(qball, module) is owner
        for name in names:
            assert getattr(qball, name) is getattr(owner, name)
    assert set(qball.__all__) | set(PUBLIC) <= set(dir(qball))


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


def test_maxprinciple_run_loads_numpy_ma_only_if_numpy_does():
    """numpy 2.x imports numpy.ma lazily, and a bare np.unique imports it on
    its first call (~17 ms, 1.3 MB); the norm kernel groups component
    shapes without it, and rep_entries asks np.unique for the inverse,
    which keeps it on the sorting path that loads no numpy.ma.  numpy 1.x
    imports numpy.ma with numpy itself.  The runs cover one phase table, a
    gauged non-invariant input (half grids, complex phase tables) and a
    matrix ci-check."""
    bare = "numpy.ma" in _modules_after("import numpy")
    for argv in (
            ['maxprinciple', '--n', '2', '--expr', 'z1+z2'],
            ['maxprinciple', '--n', '2', '--q', '3/4', '--expr',
             '(1-i)*z2 + 1/2*z1*z2 + i*z2*z2', '--trunc', '4,8,12',
             '--theta', '64'],
            ['ci-check', '--n', '2', '--expr', '[z1, z2; 0, z1]',
             '--trunc', '6,9,12', '--theta', '64']):
        run = "numpy.ma" in _modules_after(
            f"from qball.cli import main; main({argv!r})")
        assert bare or not run, argv
