"""Exact symbolic engine for the q-deformed unit ball algebra, its sphere
quotient, and the numerical harness that checks the maximum principle on
truncated matrix representations.

`import qball` imports a module only when one of its names is first used,
so the symbolic layer (scalars, algebra, rewrite, parsing) runs without
numpy; `qball.norms` and `qball.representations` load it."""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "scalars": ("DomainError",),
    "algebra": ("BALL", "SPHERE", "AlgebraContext", "ContextError", "Letter",
                "MatPoly", "NCPoly", "is_holomorphic"),
    "rewrite": ("canonical_monomials", "is_canonical_word", "normalize",
                "normalize_by_steps", "reduce_step"),
    "representations": ("BoundaryConfig", "Entries", "FockConfig", "RepMatrices",
                        "TruncationError", "boundary_block_generators",
                        "certify_compression", "fock_generators", "rep_apply",
                        "rep_entries"),
    "norms": ("GapReport", "NormConvergenceError", "NormEstimate", "ball_norm",
              "boundary_norm", "make_schedule", "max_principle_report",
              "operator_norm", "pbw_gram_min_singular", "relation_residual"),
    "parsing": ("ParseError", "parse_expression", "print_matrix", "print_poly"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
