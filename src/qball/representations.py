"""Truncated matrix realizations of the irreducible *-representations.

Two families are built:

* the Fock representation on l^2(Z_+^n), truncated to total degree |m| <= N,
  where each generator acts as a weighted raising operator; and
* the boundary family, one character block per root of unity omega, on
  l^2({m in Z_+^{n-1}}): the first generator acts as omega times a
  diagonal q-weight and the remaining generators are the Fock generators
  of n - 1 variables.

Each generator, hence each word, sends a basis vector to at most one basis
vector times one weight; rep_apply, the one evaluation of a polynomial (the
defining relations of qball.rewrite included), composes these index maps.

Truncation control: products of at most L generator letters act exactly on
basis vectors of level <= N - L, which yields certified lower bounds for
operator norms downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import NCPoly, compositions
from .scalars import coefficient_value


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


# (target, weight): basis vector c goes to weight[c] * e_{target[c]}.  Both
# arrays have length dim + 1; slot dim is a sink (target dim, weight 0) for
# vectors pushed past the truncation edge.
Map = Tuple[np.ndarray, np.ndarray]


@dataclass
class RepMatrices:
    """One weighted index map per generator plus grading metadata.

    levels[i] is the truncation grading of basis vector i; cutoff is the
    level bound N, or None when the representation is exact (no truncation,
    e.g. the n = 1 boundary representation).
    """

    n: int
    maps: List[Map]
    dim: int
    levels: np.ndarray
    cutoff: Optional[int]


def graded_lex_basis(n: int, N: int) -> List[Tuple[int, ...]]:
    """All m in Z_+^n with |m| <= N, sorted by (|m|, lex)."""
    return [m for total in range(N + 1) for m in compositions(total, n)]


def _fock_raising(basis: List[Tuple[int, ...]], index: Dict[Tuple[int, ...], int],
                  j: int, n: int, N: int, q_val: float) -> Map:
    """Map of e_m -> q^{sum_{k>j} m_k} sqrt(1-q^{2(m_j+1)}) e_{m+delta_j}."""
    dim = len(basis)
    target, weight = np.full(dim + 1, dim), np.zeros(dim + 1, dtype=complex)
    for col, m in enumerate(basis):
        if sum(m) >= N:
            continue
        phase = q_val ** sum(m[k] for k in range(j, n))
        target[col] = index[m[:j - 1] + (m[j - 1] + 1,) + m[j:]]
        weight[col] = phase * np.sqrt(1.0 - q_val ** (2 * (m[j - 1] + 1)))
    return target, weight


def _adjoint(target: np.ndarray, weight: np.ndarray) -> Map:
    """The adjoint of an injective map: its inverse, by one scatter."""
    dim = len(target) - 1
    live = np.nonzero(target[:dim] < dim)[0]
    inverse, conj = np.full(dim + 1, dim), np.zeros(dim + 1, dtype=complex)
    inverse[target[live]], conj[target[live]] = live, weight[live].conj()
    return inverse, conj


def fock_generators(cfg: FockConfig) -> RepMatrices:
    """Truncated Fock representation on {e_m : |m| <= N}."""
    basis = graded_lex_basis(cfg.n, cfg.N)
    index = {m: i for i, m in enumerate(basis)}
    maps = [_fock_raising(basis, index, j, cfg.n, cfg.N, cfg.q_val)
            for j in range(1, cfg.n + 1)]
    levels = np.array([sum(m) for m in basis], dtype=int)
    return RepMatrices(n=cfg.n, maps=maps, dim=len(basis),
                       levels=levels, cutoff=cfg.N)


def boundary_block_generators(cfg: BoundaryConfig, omega: complex) -> RepMatrices:
    """One character block of the boundary representation.

    The M-cycle block-diagonalizes over the M-th roots of unity; this builds
    the block where the cycle acts as the scalar omega.  z1 is the diagonal
    omega * q^|m|, for n = 1 the exact 1 x 1 block omega.
    """
    if cfg.n == 1:
        rest, levels, cutoff = [], np.zeros(1, dtype=int), None
    else:
        # z2..zn act on the first n - 1 indices as the Fock generators do
        fock = fock_generators(FockConfig(cfg.n - 1, cfg.N, cfg.q_val))
        rest, levels, cutoff = fock.maps, fock.levels, cfg.N
    z1 = (np.arange(len(levels) + 1), np.array(
        [omega * cfg.q_val ** int(k) for k in levels] + [0], dtype=complex))
    return RepMatrices(n=cfg.n, maps=[z1] + rest, dim=len(levels),
                       levels=levels, cutoff=cutoff)


def rep_apply(p: NCPoly, rep: RepMatrices, q_val: float,
              indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense matrix of p in rep (starred -> adjoint) on the columns and
    rows in indices, or in full when indices is None.  Each word composes
    its letters' maps from the right: one entry per column, none where the
    image falls outside indices (the sink included)."""
    if p.n != rep.n:
        raise ValueError(f"polynomial has n={p.n}, representation has n={rep.n}")
    cols = np.arange(rep.dim) if indices is None else np.asarray(indices)
    pos = np.full(rep.dim + 1, -1)
    pos[cols] = np.arange(len(cols))
    adjoints = [_adjoint(*gen) for gen in rep.maps]
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        target, weight = cols, np.ones(len(cols), dtype=complex)
        for letter in reversed(word):
            t, w = (adjoints if letter.starred else rep.maps)[letter.index - 1]
            target, weight = t[target], w[target] * weight
        rows = pos[target]
        keep = np.nonzero(rows >= 0)[0]
        value = coefficient_value(p.terms[word], p.den, q_val)
        out[rows[keep], keep] += value * weight[keep]
    return out


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


def compress(mat: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """A full dense matrix compressed to indices (for bench/make_refs.py)."""
    return np.asarray(mat)[np.ix_(indices, indices)]
