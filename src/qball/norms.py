"""Certified norm estimation and the maximum-principle experiment layer.

All reported values are certified lower bounds for the C*-norm: a truncated
operator compressed to the subspace where truncation provably has no effect
is a genuine compression of the untruncated operator, so its norm can only
grow as the truncation parameters increase.

The norm of the ball algebra is taken as the sup over the implemented
norming family (Fock plus the boundary family); the boundary norm uses the
boundary family alone.  The boundary M-cycle is evaluated per character
block, which is exactly its block diagonalization over the M-th roots of
unity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .algebra import MatPoly, NCPoly, is_holomorphic
from .representations import (
    BoundaryConfig,
    FockConfig,
    RepMatrices,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    compress,
    fock_generators,
    rep_apply,
)

DEFAULT_TOL = 1e-8
_DENSE_LIMIT = 2048


class NormConvergenceError(RuntimeError):
    """Iterative norm computation failed to converge."""

    def __init__(self, message: str, last_value: float):
        super().__init__(message)
        self.last_value = last_value


def operator_norm(A: Union[np.ndarray, sp.spmatrix], tol: float = DEFAULT_TOL) -> float:
    """Largest singular value, deterministic.

    Small matrices go through LAPACK; larger ones use power iteration on
    A^H A started from the normalized all-ones vector, stopping on
    stagnation of the Rayleigh quotient.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if sp.issparse(A):
        if A.shape[0] == 0 or A.shape[1] == 0 or A.nnz == 0:
            return 0.0
        if max(A.shape) <= _DENSE_LIMIT:
            return float(np.linalg.norm(A.toarray(), 2))
        return _power_iteration(A, tol)
    A = np.asarray(A)
    if A.size == 0 or not np.any(A):
        return 0.0
    if max(A.shape) <= _DENSE_LIMIT:
        return float(np.linalg.norm(A, 2))
    return _power_iteration(sp.csr_matrix(A), tol)


def _power_iteration(A: sp.spmatrix, tol: float, max_iter: int = 200000) -> float:
    A = A.tocsr()
    Ah = A.conjugate().transpose().tocsr()
    v = np.ones(A.shape[1], dtype=complex)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    stagnant = 0
    for _ in range(max_iter):
        w = Ah @ (A @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        new = float(np.real(np.vdot(v, w)))
        v = w / nrm
        if abs(new - rayleigh) <= tol * max(abs(new), 1e-300):
            stagnant += 1
            if stagnant >= 3:
                return float(np.sqrt(max(new, 0.0)))
        else:
            stagnant = 0
        rayleigh = new
    raise NormConvergenceError(
        f"power iteration did not stagnate within {max_iter} iterations",
        float(np.sqrt(max(rayleigh, 0.0))))


# -- schedules and estimates ------------------------------------------

SchedulePoint = Tuple[int, int]          # (N, M)
ScheduleLike = Sequence[Union[int, SchedulePoint]]

DEFAULT_THETA = 1024


def make_schedule(trunc: Sequence[int], theta: Optional[int] = None) -> List[SchedulePoint]:
    """Pair a truncation schedule with a nested (doubling) theta grid.

    The final grid order is theta; earlier points halve it, so all grids
    are nested and the resulting bounds are monotone.
    """
    if not trunc:
        raise ValueError("empty schedule")
    if list(trunc) != sorted(set(trunc)):
        raise ValueError("truncation schedule must be strictly increasing")
    final = theta if theta is not None else DEFAULT_THETA
    out = []
    for i, N in enumerate(trunc):
        M = max(1, final >> (len(trunc) - 1 - i))
        out.append((int(N), int(M)))
    return out


def _as_schedule(schedule: ScheduleLike) -> List[SchedulePoint]:
    if all(isinstance(s, int) for s in schedule):
        return make_schedule(list(schedule))
    return [(int(N), int(M)) for N, M in schedule]


@dataclass
class NormEstimate:
    """Monotone sequence of certified lower bounds on a C*-norm."""

    points: List[dict]          # {"N": int, "M": int|None, "value": float}
    final: float
    tol: float
    stabilized: bool

    @staticmethod
    def from_values(params: Sequence[dict], values: Sequence[float],
                    tol: float) -> "NormEstimate":
        pts = [dict(p, value=float(v)) for p, v in zip(params, values)]
        final = float(values[-1])
        stabilized = len(values) >= 2 and abs(values[-1] - values[-2]) < tol
        return NormEstimate(points=pts, final=final, tol=tol,
                            stabilized=stabilized)

    def values(self) -> List[float]:
        return [p["value"] for p in self.points]

    def is_monotone(self, slack: float = 1e-12) -> bool:
        vals = self.values()
        return all(b >= a - slack for a, b in zip(vals, vals[1:]))


# -- single-point certified values ------------------------------------

_FOCK_CACHE: dict = {}


def _fock_rep(n: int, N: int, q_val: float) -> RepMatrices:
    key = (n, N, q_val)
    rep = _FOCK_CACHE.get(key)
    if rep is None:
        rep = fock_generators(FockConfig(n=n, N=N, q_val=q_val))
        _FOCK_CACHE[key] = rep
    return rep


def _check_trunc(N: int, degree: int) -> None:
    if N < degree + 1:
        raise TruncationError(
            f"truncation too small: N={N} < deg+1={degree + 1}")


def fock_certified_value(f: NCPoly, q_val: float, N: int,
                         tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the Fock-representation norm of f."""
    degree = f.degree()
    _check_trunc(N, degree)
    rep = _fock_rep(f.n, N, q_val)
    indices = certify_compression(rep, degree)
    block = compress(rep_apply(f, rep, q_val), indices)
    return operator_norm(block, tol)


def _circle_word_value(word, z: complex) -> complex:
    out = 1 + 0j
    for letter in word:
        out *= z.conjugate() if letter.starred else z
    return out


def circle_grid_max(f: NCPoly, q_val: float, points: int) -> float:
    """Classical oracle for n = 1: max of |f(e^{i theta})| on a theta grid.

    Evaluates f as an ordinary function on the circle (z* -> conjugate),
    fully independent of the representation machinery.
    """
    if f.n != 1:
        raise ValueError("the circle oracle only applies to n = 1")
    best = 0.0
    for t in range(points):
        z = cmath.exp(2j * cmath.pi * t / points)
        total = 0j
        for word in sorted(f.terms, key=lambda w: (len(w), w)):
            total += f.terms[word].evaluate(q_val) * _circle_word_value(word, z)
        best = max(best, abs(total))
    return best


def boundary_certified_value(f: NCPoly, q_val: float, N: int, M: int,
                             tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the boundary-family norm of f.

    Maximizes the per-character block norms over the M-th roots of unity.
    """
    degree = f.degree()
    if f.n == 1:
        # one-dimensional character blocks: plain function evaluation
        return circle_grid_max(f, q_val, M)
    _check_trunc(N, degree)
    cfg = BoundaryConfig(n=f.n, N=N, M=M, q_val=q_val)
    best = 0.0
    for t in range(M):
        omega = cmath.exp(2j * cmath.pi * t / M)
        rep = boundary_block_generators(cfg, omega)
        indices = certify_compression(rep, degree)
        block = compress(rep_apply(f, rep, q_val), indices)
        best = max(best, operator_norm(block, tol))
    return best


# -- norm schedules ---------------------------------------------------

def ball_norm(f: NCPoly, q_val: float, schedule: ScheduleLike,
              tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the ball norm of f.

    The norming family is Fock plus the boundary representations: the
    boundary family annihilates the sphere relation but still represents
    the ball algebra, so it participates in the sup.
    """
    pts = _as_schedule(schedule)
    params, values = [], []
    for N, M in pts:
        v = max(fock_certified_value(f, q_val, N, tol),
                boundary_certified_value(f, q_val, N, M, tol))
        params.append({"N": N, "M": M})
        values.append(v)
    return NormEstimate.from_values(params, values, tol)


def boundary_norm(f: NCPoly, q_val: float, schedule: ScheduleLike,
                  tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the quotient (sphere) norm of f."""
    pts = _as_schedule(schedule)
    params, values = [], []
    for N, M in pts:
        params.append({"N": N, "M": M})
        values.append(boundary_certified_value(f, q_val, N, M, tol))
    return NormEstimate.from_values(params, values, tol)


# -- matrix levels ----------------------------------------------------

def _block_norm(rep: RepMatrices, F: MatPoly, q_val: float, L: int,
                tol: float) -> float:
    indices = certify_compression(rep, L)
    blocks = [[compress(rep_apply(p, rep, q_val), indices)
               for p in row] for row in F.entries]
    return operator_norm(np.block(blocks), tol)


def _boundary_matrix_value(F: MatPoly, q_val: float, N: int, M: int,
                           tol: float) -> float:
    L = F.degree()
    if F.n > 1:
        _check_trunc(N, L)
    cfg = BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val)
    best = 0.0
    for t in range(M):
        omega = cmath.exp(2j * cmath.pi * t / M)
        rep = boundary_block_generators(cfg, omega)
        best = max(best, _block_norm(rep, F, q_val, L, tol))
    return best


def matrix_norm_level_k(F: MatPoly, side: str, q_val: float,
                        schedule: ScheduleLike,
                        tol: float = DEFAULT_TOL) -> NormEstimate:
    """Norm schedule for a k x k matrix over the algebra."""
    if side not in ("ball", "boundary"):
        raise ValueError(f"side must be 'ball' or 'boundary', got {side!r}")
    pts = _as_schedule(schedule)
    L = F.degree()
    params, values = [], []
    for N, M in pts:
        bval = _boundary_matrix_value(F, q_val, N, M, tol)
        if side == "ball":
            _check_trunc(N, L)
            rep = _fock_rep(F.n, N, q_val)
            bval = max(bval, _block_norm(rep, F, q_val, L, tol))
        params.append({"N": N, "M": M})
        values.append(bval)
    return NormEstimate.from_values(params, values, tol)


# -- maximum-principle reports ----------------------------------------

@dataclass
class GapReport:
    """Side-by-side ball/boundary norm schedules and their gap."""

    expression: str
    ball: NormEstimate
    boundary: NormEstimate
    gap: float
    holomorphic: bool
    schedule: List[dict] = field(default_factory=list)

    def gaps(self) -> List[float]:
        return [abs(a - b) for a, b in
                zip(self.ball.values(), self.boundary.values())]


def max_principle_report(f: Union[NCPoly, MatPoly], q_val: float,
                         schedule: ScheduleLike, tol: float = DEFAULT_TOL,
                         expression: str = "") -> GapReport:
    """Run both sides on the same schedule and report the norm gap."""
    pts = _as_schedule(schedule)
    if isinstance(f, MatPoly):
        ball = matrix_norm_level_k(f, "ball", q_val, pts, tol)
        bdry = matrix_norm_level_k(f, "boundary", q_val, pts, tol)
        holo = f.is_holomorphic()
    else:
        ball = ball_norm(f, q_val, pts, tol)
        bdry = boundary_norm(f, q_val, pts, tol)
        holo = is_holomorphic(f)
    return GapReport(
        expression=expression,
        ball=ball,
        boundary=bdry,
        gap=abs(ball.final - bdry.final),
        holomorphic=holo,
        schedule=[{"N": N, "M": M} for N, M in pts],
    )


# -- linear-independence probe ----------------------------------------

def pbw_gram_min_singular(n: int, max_degree: int, N: int, q_val: float) -> float:
    """Smallest singular value of the Gram matrix of the canonical
    monomials (degree <= max_degree) realized as truncated Fock matrices."""
    from .rewrite import canonical_monomials

    rep = _fock_rep(n, N, q_val)
    cols = []
    for word in canonical_monomials(n, max_degree):
        cols.append(rep_apply(NCPoly.from_word(n, word), rep, q_val)
                    .toarray().ravel())
    V = np.column_stack(cols)
    gram = V.conj().T @ V
    return float(np.linalg.svd(gram, compute_uv=False)[-1])
