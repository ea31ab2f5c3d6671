"""Truncated matrix realizations of the irreducible *-representations.

Two families are built:

* the Fock representation on l^2(Z_+^n), truncated to total degree |m| <= N,
  where each generator acts as a weighted raising operator; and
* the boundary family, one character block per root of unity omega, on
  l^2({m in Z_+^{n-1}}): the first generator acts as omega times a
  diagonal q-weight and the remaining generators are the Fock generators
  of n - 1 variables.

Truncation control: products of at most L generator letters act exactly on
basis vectors of level <= N - L, which yields certified lower bounds for
operator norms downstream.  rep_apply is the one evaluation of a
polynomial, the defining relations (qball.rewrite) included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .algebra import NCPoly, compositions


class TruncationError(ValueError):
    """Truncation too small for the requested certified computation."""


@dataclass(frozen=True)
class FockConfig:
    n: int
    N: int
    q_val: float

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("need n >= 1 and N >= 1")
        if not 0 < self.q_val < 1:
            raise ValueError(f"q must lie in (0, 1), got {self.q_val}")


@dataclass(frozen=True)
class BoundaryConfig:
    n: int
    N: int
    M: int
    q_val: float

    def __post_init__(self):
        if self.n < 1 or self.N < 1 or self.M < 1:
            raise ValueError("need n >= 1, N >= 1, M >= 1")
        if not 0 < self.q_val < 1:
            raise ValueError(f"q must lie in (0, 1), got {self.q_val}")


@dataclass
class RepMatrices:
    """One sparse matrix per generator plus grading metadata.

    levels[i] is the truncation grading of basis vector i; cutoff is the
    level bound N, or None when the representation is exact (no truncation,
    e.g. the n = 1 boundary representation).
    """

    n: int
    mats: List[sp.csr_matrix]
    dim: int
    levels: np.ndarray
    cutoff: Optional[int]
    identity: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.identity = sp.identity(self.dim, dtype=complex, format="csr")

    def generator(self, index: int, starred: bool = False) -> sp.csr_matrix:
        mat = self.mats[index - 1]
        return mat.conjugate().transpose().tocsr() if starred else mat


def graded_lex_basis(n: int, N: int) -> List[Tuple[int, ...]]:
    """All m in Z_+^n with |m| <= N, sorted by (|m|, lex)."""
    return [m for total in range(N + 1) for m in compositions(total, n)]


def _fock_raising(basis: List[Tuple[int, ...]], index: Dict[Tuple[int, ...], int],
                  j: int, n: int, N: int, q_val: float) -> sp.csr_matrix:
    """Matrix of e_m -> q^{sum_{k>j} m_k} sqrt(1-q^{2(m_j+1)}) e_{m+delta_j}."""
    rows, cols, vals = [], [], []
    for col, m in enumerate(basis):
        if sum(m) >= N:
            continue
        target = list(m)
        target[j - 1] += 1
        phase = q_val ** sum(m[k] for k in range(j, n))
        weight = np.sqrt(1.0 - q_val ** (2 * (m[j - 1] + 1)))
        rows.append(index[tuple(target)])
        cols.append(col)
        vals.append(phase * weight)
    dim = len(basis)
    return sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)),
                         shape=(dim, dim))


def fock_generators(cfg: FockConfig) -> RepMatrices:
    """Truncated Fock representation on {e_m : |m| <= N}."""
    basis = graded_lex_basis(cfg.n, cfg.N)
    index = {m: i for i, m in enumerate(basis)}
    mats = [_fock_raising(basis, index, j, cfg.n, cfg.N, cfg.q_val)
            for j in range(1, cfg.n + 1)]
    levels = np.array([sum(m) for m in basis], dtype=int)
    return RepMatrices(n=cfg.n, mats=mats, dim=len(basis),
                       levels=levels, cutoff=cfg.N)


def boundary_block_generators(cfg: BoundaryConfig, omega: complex) -> RepMatrices:
    """One character block of the boundary representation.

    The M-cycle block-diagonalizes over the M-th roots of unity; this builds
    the block where the cycle acts as the scalar omega.
    """
    if cfg.n == 1:
        mats = [sp.csr_matrix(np.array([[omega]], dtype=complex))]
        return RepMatrices(n=1, mats=mats, dim=1,
                           levels=np.zeros(1, dtype=int), cutoff=None)
    # z2..zn act on the first n - 1 indices as the Fock generators do
    fock = fock_generators(FockConfig(cfg.n - 1, cfg.N, cfg.q_val))
    weights = sp.diags([omega * cfg.q_val ** int(k) for k in fock.levels],
                       format="csr", dtype=complex)
    return RepMatrices(n=cfg.n, mats=[weights] + fock.mats, dim=fock.dim,
                       levels=fock.levels, cutoff=cfg.N)


def rep_apply(p: NCPoly, rep: RepMatrices, q_val: float) -> sp.csr_matrix:
    """Evaluate a polynomial in the representation (starred -> adjoint)."""
    if p.n != rep.n:
        raise ValueError(f"polynomial has n={p.n}, representation has n={rep.n}")
    total = sp.csr_matrix((rep.dim, rep.dim), dtype=complex)
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        coeff = p.terms[word].evaluate(q_val)
        mat = rep.identity
        for letter in reversed(word):
            mat = rep.generator(letter.index, letter.starred) @ mat
        total = total + coeff * mat
    return total.tocsr()


def certify_compression(rep: RepMatrices, word_length_bound: int) -> np.ndarray:
    """Indices of the subspace where products of <= L letters act exactly.

    Each generator letter moves the truncation level by at most one, so
    below level N - L the truncated products agree with the untruncated
    operator.  Exact representations certify everything.
    """
    if word_length_bound < 0:
        raise ValueError("word length bound must be >= 0")
    if rep.cutoff is None:
        return np.arange(rep.dim)
    limit = rep.cutoff - word_length_bound
    if limit < 0:
        raise TruncationError(
            f"truncation too small: N={rep.cutoff} < L={word_length_bound}")
    return np.nonzero(rep.levels <= limit)[0]


def compress(mat: sp.spmatrix, indices: np.ndarray) -> np.ndarray:
    """Dense compression of a sparse matrix to the certified subspace."""
    return mat.tocsr()[np.ix_(indices, indices)].toarray()
