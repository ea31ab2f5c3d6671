"""Exact symbolic engine for the q-deformed unit ball algebra, its sphere
quotient, and the numerical harness that checks the maximum principle on
truncated matrix representations."""

from .scalars import DomainError
from .algebra import (
    BALL,
    SPHERE,
    AlgebraContext,
    ContextError,
    Letter,
    MatPoly,
    NCPoly,
    is_holomorphic,
)
from .rewrite import (
    canonical_monomials,
    is_canonical_word,
    normalize,
    normalize_by_steps,
    reduce_step,
)
from .representations import (
    BoundaryConfig,
    Entries,
    FockConfig,
    RepMatrices,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    rep_apply,
    rep_entries,
)
from .norms import (
    GapReport,
    NormConvergenceError,
    NormEstimate,
    ball_norm,
    boundary_norm,
    make_schedule,
    max_principle_report,
    operator_norm,
    pbw_gram_min_singular,
    relation_residual,
)
from .parsing import ParseError, parse_expression, print_matrix, print_poly

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "BALL", "SPHERE", "BoundaryConfig", "ContextError",
    "DomainError", "Entries", "FockConfig", "GapReport", "Letter", "MatPoly", "NCPoly",
    "NormConvergenceError", "NormEstimate", "ParseError", "RepMatrices",
    "TruncationError", "ball_norm", "boundary_block_generators",
    "boundary_norm", "canonical_monomials", "certify_compression",
    "fock_generators", "is_canonical_word", "is_holomorphic",
    "make_schedule", "max_principle_report",
    "normalize", "normalize_by_steps", "operator_norm", "parse_expression",
    "pbw_gram_min_singular", "print_matrix", "print_poly", "reduce_step",
    "relation_residual", "rep_apply", "rep_entries",
]
