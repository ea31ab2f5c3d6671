"""Certified norm estimation and the maximum-principle experiment layer.

All reported values are certified lower bounds for the C*-norm: a truncated
operator compressed to the subspace where truncation provably has no effect
is a genuine compression of the untruncated operator, so its norm can only
grow as the truncation parameters increase.

The norm of the ball algebra is taken as the sup over the implemented
norming family (Fock plus the boundary family); the boundary norm uses the
boundary family alone.

In the boundary character block of an M-th root of unity omega, z1 acts
as omega * D and the other generators do not depend on omega, so a word of
z1-charge d = #z1 - #z1' contributes omega^d times its omega = 1 matrix.  A
polynomial, or a k x l matrix of polynomials, is one trigonometric
polynomial sum_d omega^d A_d: per schedule point the omega = 1 block is
built once, one compressed A_d is formed per charge, all M blocks come out
of one einsum (in batches of about 1 MB), and each batch takes its top
singular values from one stacked LAPACK SVD.  Blocks above _DENSE_LIMIT go
through operator_norm one at a time.  n = 1 is the 1 x 1 case, with
circle_grid_max as its independent oracle.  Maximum-principle reports
compute the boundary value once per point and use it for both sides.
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
_BATCH_BYTES = 1 << 20      # size of one stacked batch of boundary blocks


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
    """Pair a truncation schedule with nested theta grids.

    The final grid order is theta; each earlier point halves it while the
    result still divides theta, M_i = theta >> min(P - 1 - i, v2(theta))
    for P points, so every grid is a subgroup of the next and the resulting
    bounds are monotone.
    """
    if not trunc:
        raise ValueError("empty schedule")
    if list(trunc) != sorted(set(trunc)):
        raise ValueError("truncation schedule must be strictly increasing")
    final = theta if theta is not None else DEFAULT_THETA
    if final < 1:
        raise ValueError(f"theta must be at least 1, got {final}")
    halvings = (final & -final).bit_length() - 1  # v2(theta)
    last = len(trunc) - 1
    return [(int(N), final >> min(last - i, halvings))
            for i, N in enumerate(trunc)]


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


def fock_certified_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                         tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the Fock-representation norm of f."""
    degree = f.degree()
    _check_trunc(N, degree)
    rep = _fock_rep(f.n, N, q_val)
    indices = certify_compression(rep, degree)
    if isinstance(f, MatPoly):
        block = np.block([[compress(rep_apply(p, rep, q_val), indices)
                           for p in row] for row in f.entries])
    else:
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


def _charge_matrices(F: MatPoly, rep: RepMatrices, indices: np.ndarray,
                     q_val: float) -> Tuple[np.ndarray, np.ndarray]:
    """The z1-charges d = #z1 - #z1' of F's words and, stacked, the
    compressed omega = 1 matrix A_d of each charge part (entry (a, b) at
    rows a*r.., cols b*r..)."""
    parts: dict = {}
    for a, row in enumerate(F.entries):
        for b, p in enumerate(row):
            for word, coeff in p.terms.items():
                d = sum(-1 if x.starred else 1 for x in word if x.index == 1)
                parts.setdefault(d, {}).setdefault((a, b), {})[word] = coeff
    r = len(indices)
    charges = sorted(parts)
    A = np.zeros((len(charges), F.shape[0] * r, F.shape[1] * r), dtype=complex)
    for i, d in enumerate(charges):
        for (a, b), terms in parts[d].items():
            A[i, a * r:(a + 1) * r, b * r:(b + 1) * r] = compress(
                rep_apply(NCPoly(F.n, terms), rep, q_val), indices)
    return np.array(charges, dtype=int), A


def boundary_certified_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                             M: int, tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the boundary-family norm of f.

    f is a polynomial (the 1 x 1 case) or a matrix of polynomials.  The
    value is the max of the block norms sum_d omega^d A_d over the M-th
    roots of unity omega.
    """
    F = f if isinstance(f, MatPoly) else MatPoly([[f]])
    L = F.degree()
    rep = boundary_block_generators(
        BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val), 1.0)
    if rep.cutoff is not None:
        _check_trunc(N, L)
    charges, A = _charge_matrices(F, rep, certify_compression(rep, L), q_val)
    if not len(charges):
        return 0.0
    # omega_t^d = exp(2 pi i (t d mod M) / M): nested grids share exact phases
    phases = np.exp(2j * np.pi * (np.outer(np.arange(M), charges) % M) / M)
    if max(A.shape[1:]) > _DENSE_LIMIT:
        return max(operator_norm(np.tensordot(w, A, axes=1), tol)
                   for w in phases)
    chunk = max(1, _BATCH_BYTES // A[0].nbytes)
    best = 0.0
    for start in range(0, M, chunk):
        blocks = np.einsum("md,dij->mij", phases[start:start + chunk], A)
        top = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        best = max(best, float(top.max()))
    return best


# -- norm schedules ---------------------------------------------------

def _schedules(f: Union[NCPoly, MatPoly], q_val: float,
               schedule: ScheduleLike, tol: float, ball: bool
               ) -> Tuple[Optional[NormEstimate], NormEstimate]:
    """Ball (if asked) and boundary schedules of f.  The boundary value is
    computed once per point; the ball value is max(Fock, boundary)."""
    pts = _as_schedule(schedule)
    params = [{"N": N, "M": M} for N, M in pts]
    bdry = [boundary_certified_value(f, q_val, N, M, tol) for N, M in pts]
    boundary = NormEstimate.from_values(params, bdry, tol)
    if not ball:
        return None, boundary
    values = [max(fock_certified_value(f, q_val, N, tol), b)
              for (N, _), b in zip(pts, bdry)]
    return NormEstimate.from_values(params, values, tol), boundary


def ball_norm(f: Union[NCPoly, MatPoly], q_val: float, schedule: ScheduleLike,
              tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the ball norm of f.

    The norming family is Fock plus the boundary representations: the
    boundary family annihilates the sphere relation but still represents
    the ball algebra, so it participates in the sup.
    """
    return _schedules(f, q_val, schedule, tol, ball=True)[0]


def boundary_norm(f: Union[NCPoly, MatPoly], q_val: float,
                  schedule: ScheduleLike,
                  tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the quotient (sphere) norm of f."""
    return _schedules(f, q_val, schedule, tol, ball=False)[1]


# -- matrix levels ----------------------------------------------------

def matrix_norm_level_k(F: MatPoly, side: str, q_val: float,
                        schedule: ScheduleLike,
                        tol: float = DEFAULT_TOL) -> NormEstimate:
    """Norm schedule for a k x k matrix over the algebra."""
    if side not in ("ball", "boundary"):
        raise ValueError(f"side must be 'ball' or 'boundary', got {side!r}")
    norm = ball_norm if side == "ball" else boundary_norm
    return norm(F, q_val, schedule, tol)


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
    """Run both sides on the same schedule and report the norm gap.

    One pass: each schedule point computes the boundary value once and the
    Fock value once; the ball value is their max.
    """
    ball, boundary = _schedules(f, q_val, schedule, tol, ball=True)
    return GapReport(
        expression=expression,
        ball=ball,
        boundary=boundary,
        gap=abs(ball.final - boundary.final),
        holomorphic=(f.is_holomorphic() if isinstance(f, MatPoly)
                     else is_holomorphic(f)),
        schedule=[{"N": N, "M": M} for N, M in _as_schedule(schedule)],
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
