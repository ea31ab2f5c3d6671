"""Truncated matrix realizations of the irreducible *-representations.

One builder (_stratum) makes the Fock representation of the ball and
every stratum of the sphere's irreducible representations, truncated to
total degree |m| <= N.  Stratum k = 0..n lives on the Fock basis of the
n - k variables (m_{k+1}, ..., m_n): z_j for j < k is 0, z_k is omega
times a diagonal q-weight, and z_{k+1}..z_n act as weighted raising
operators.  Stratum 0 is the Fock representation (fock_generators);
stratum 1 at the M-th roots of unity omega is the boundary family, one
character block per omega (boundary_block_generators), and at n = 1 it is
the 1 x 1 block omega (the circle), truncated at N like every other.  The
norm paths use strata 0 and 1 only.

Each generator, hence each word, sends a basis vector to at most one basis
vector times one weight.  A block is a stack of D >= 1 matrices over one
sparsity pattern (Entries: rows, cols in row-major order, values one row
per matrix, and the shape); rep_entries, the one evaluation of polynomials
or matrices of polynomials (relations included), composes these index maps
for a sequence of parts in one pass and returns their stack over the union
of their nonzero positions.  Contributions to one entry of one part are
summed in word order into 0, the float additions of a dense +=, and a
position that is exactly 0 in every part is dropped, so no r x c array is
allocated; rep_apply scatters the entries of one polynomial into a dense
block for the callers that want one.
The maps are built from arrays: a raising map reads its targets off the
(|m|, lex) order of the basis rows, with no search (the basis array is
built once per (n, N)), and every weight, the diagonal of z_k included, is
read from one table of Python float powers q^k (_powers), so each map is
bit for bit that of a construction one basis vector at a time.  The
raising weights are float64, and so is the diagonal when omega is real
(the norm paths pass 1.0); a complex omega gives a complex diagonal.
Adjoint maps keep their map's dtype and are built in each rep_entries
call.
rep_entries evaluates in float64 when every map and every coefficient
value is real, and in complex128 otherwise.

Truncation control: every representation carries its level bound N, and
products of at most L generator letters act exactly on basis vectors of
level <= N - L, which yields certified lower bounds for operator norms
downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import MatPoly, NCPoly, compositions
from .scalars import coefficient_value


class TruncationError(ValueError):
    """Truncation too small for the requested certified computation."""


@dataclass(frozen=True)
class FockConfig:
    n: int
    N: int
    q_val: float

    def __post_init__(self):
        if self.n < 1 or self.N < 0:
            raise ValueError("need n >= 1 and N >= 0")
        if not 0 < self.q_val < 1:
            raise ValueError(f"q must lie in (0, 1), got {self.q_val}")


@dataclass(frozen=True)
class BoundaryConfig:
    n: int
    N: int
    M: int
    q_val: float

    def __post_init__(self):
        if self.n < 1 or self.N < 0 or self.M < 1:
            raise ValueError("need n >= 1, N >= 0, M >= 1")
        if not 0 < self.q_val < 1:
            raise ValueError(f"q must lie in (0, 1), got {self.q_val}")


# (target, weight): basis vector c goes to weight[c] * e_{target[c]}.  Both
# arrays have length dim + 1; slot dim is a sink (target dim, weight 0) for
# vectors pushed past the truncation edge.
Map = Tuple[np.ndarray, np.ndarray]


@dataclass
class RepMatrices:
    """One weighted index map per generator plus grading metadata.

    levels[i] is the truncation grading of basis vector i and cutoff is the
    level bound N, on every side at every n.  A starred letter acts by the
    adjoint of its map, which rep_entries builds for each call.
    """

    n: int
    maps: List[Map]
    dim: int
    levels: np.ndarray
    cutoff: int


def graded_lex_basis(n: int, N: int) -> List[Tuple[int, ...]]:
    """All m in Z_+^n with |m| <= N, sorted by (|m|, lex)."""
    return [m for total in range(N + 1) for m in compositions(total, n)]


@functools.lru_cache(maxsize=None)
def _basis_array(n: int, N: int) -> np.ndarray:
    """graded_lex_basis(n, N) as a read-only int array, built once per
    (n, N): it does not depend on q."""
    basis = np.array(graded_lex_basis(n, N), dtype=int)
    basis.flags.writeable = False
    return basis


def _powers(q_val: float, count: int) -> np.ndarray:
    """[q^0, ..., q^(count-1)], each a Python float power: numpy's
    vectorized power may round differently."""
    return np.array([q_val ** k for k in range(count)])


def _adjoint(target: np.ndarray, weight: np.ndarray) -> Map:
    """The adjoint of an injective map: its inverse, by one scatter, in
    the weights' dtype."""
    dim = len(target) - 1
    live = np.nonzero(target[:dim] < dim)[0]
    inverse, conj = np.full(dim + 1, dim), np.zeros_like(weight)
    inverse[target[live]], conj[target[live]] = live, weight[live].conj()
    return inverse, conj


def _stratum(n: int, N: int, q_val: float, k: int,
             omega: complex = 1.0) -> RepMatrices:
    """Stratum k = 0..n of n generators, truncated at |m| <= N: k = 0 is
    the Fock representation, k = 1 the boundary character block at omega,
    and k = n the 1 x 1 block omega.

    On l^2(Z_+)^{(x)n} the Fock generators are tensor products,
    z_j = I^{(x)(j-1)} (x) S (x) Q^{(x)(n-j)}, with S e_m =
    sqrt(1 - q^{2(m+1)}) e_{m+1} and Q e_m = q^m e_m.  Stratum k is the
    limit m_k -> infinity: on factor k, Q -> 0, S -> omega and I -> 1.  So
    z_j = 0 for j < k (the sink map, weight 0), z_k is the diagonal
    omega q^{|m|}, and z_{k+1}..z_n are the Fock generators of the n - k
    variables m = (m_{k+1}, ..., m_n), whose truncated basis (one vector
    of level 0 when k = n) carries the grading and the cutoff N.

    z_j, j > k, maps e_m -> q^{sum_{i>j} m_i} sqrt(1-q^{2(m_j+1)})
    e_{m+delta_j} for |m| < N, and the rows of level N to the sink.  Its
    targets are read off the (|m|, lex) order of the basis: m -> m +
    delta_j raises both levels by one and keeps lex order (delta_j is
    added to both sides), and each row m' with m'_j >= 1 is the image of
    m' - delta_j, whose level is below N.  So the rows of level < N go, in
    order, onto the rows with m_j >= 1, in order.  A real omega (a complex
    one with imaginary part 0 included) gives a float64 diagonal, each
    weight the real part of the complex one bit for bit; any other omega
    gives a complex one."""
    basis = _basis_array(n - k, N)
    levels = basis.sum(axis=1)
    live = np.flatnonzero(levels < N)
    m, powers = basis[live], _powers(q_val, 2 * N + 1)
    dim = len(basis)
    maps = [(np.full(dim + 1, dim), np.zeros(dim + 1))] * (k - 1)
    if k:
        omega = complex(omega)
        scale = omega.real if omega.imag == 0 else omega
        maps.append((np.arange(dim + 1), np.append(scale * powers[levels], 0)))
    for j in range(1, n - k + 1):
        target, weight = np.full(dim + 1, dim), np.zeros(dim + 1)
        target[live] = np.flatnonzero(basis[:, j - 1] > 0)
        weight[live] = powers[m[:, j:].sum(axis=1)] * np.sqrt(
            1.0 - powers[2 * (m[:, j - 1] + 1)])
        maps.append((target, weight))
    return RepMatrices(n=n, maps=maps, dim=dim, levels=levels, cutoff=N)


def fock_generators(cfg: FockConfig) -> RepMatrices:
    """Truncated Fock representation on {e_m : |m| <= N} (stratum 0)."""
    return _stratum(cfg.n, cfg.N, cfg.q_val, 0)


def boundary_block_generators(cfg: BoundaryConfig, omega: complex) -> RepMatrices:
    """One character block of the boundary representation (stratum 1).

    The M-cycle block-diagonalizes over the M-th roots of unity; this builds
    the block where the cycle acts as the scalar omega: z1 is the diagonal
    omega * q^|m| on the truncated Fock space of m = (m_2, ..., m_n), and
    z2..zn act as its Fock generators.  At n = 1 that space is the one
    vector of level 0, so z1 is the 1 x 1 block omega, certified up to
    words of N letters as at every n.
    """
    return _stratum(cfg.n, cfg.N, cfg.q_val, 1, omega)


class Entries(NamedTuple):
    """A block of the given shape (rows, cols) as a stack of D >= 1
    matrices over one sparsity pattern: values[d, e] is matrix d at
    (rows[e], cols[e]), positions in row-major order, and no position is
    exactly 0 in every matrix (one matrix may hold a 0 there)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: Tuple[int, int]


@np.errstate(over="ignore", invalid="ignore")
def rep_entries(parts: Sequence[Union[NCPoly, MatPoly]], rep: RepMatrices,
                q_val: float, indices: Optional[np.ndarray] = None) -> Entries:
    """The stack of the parts (polynomials or k x l MatPolys of one shape)
    in rep (starred -> adjoint) on the columns and rows in indices, or in
    full when indices is None, over the union of their nonzero positions:
    values[d] is part d.  Entry (a, b) of a MatPoly fills rows a*r.. and
    columns b*r.. of one block, r = len(indices), and a polynomial is the
    1 x 1 case.  Each word composes its letters' maps from the right: one
    entry per column, none where the image falls outside indices (the sink
    included).  The contributions to one position of one part are summed
    in the order the words are visited (entries row-major, words by
    (length, word)) into 0, by np.add.at, so the float additions are those
    of a dense += of each word in turn; a position that is exactly 0 in
    every part is dropped.  A sum that overflows stays inf or nan, with no
    warning, for operator_norm to refuse.

    The values are float64 when every coefficient value is real and every
    map of rep is real, else complex128.  A float64 value is bit for bit
    the real part of the complex one: (a + 0i)(b + 0i) rounds to ab, and
    adding zero imaginary parts changes no real part."""
    Fs = [MatPoly.of(f) for f in parts]
    if len({F.shape for F in Fs}) != 1:
        raise ValueError("need one or more parts, all of one shape")
    for F in Fs:
        if F.n != rep.n:
            raise ValueError(
                f"polynomial has n={F.n}, representation has n={rep.n}")
    cols = np.arange(rep.dim) if indices is None else np.asarray(indices)
    r = len(cols)
    shape = (Fs[0].shape[0] * r, Fs[0].shape[1] * r)
    pos = np.full(rep.dim + 1, -1)
    pos[cols] = np.arange(r)
    terms = [(d, a, b, word, coefficient_value(p.terms[word], p.den, q_val))
             for d, F in enumerate(Fs)
             for a, row in enumerate(F.entries)
             for b, p in enumerate(row)
             for word in sorted(p.terms, key=lambda w: (len(w), w))]
    real = (all(value.imag == 0 for *_, value in terms)
            and not any(np.iscomplexobj(w) for _, w in rep.maps))
    dtype = float if real else complex
    maps = rep.maps, [_adjoint(*m) for m in rep.maps]  # by .starred
    keys, layer = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    contributions = [np.zeros(0, dtype=dtype)]
    for d, a, b, word, value in terms:
        target, weight = cols, np.ones(r, dtype=dtype)
        for letter in reversed(word):
            t, w = maps[letter.starred][letter.index - 1]
            target, weight = t[target], w[target] * weight
        rows = pos[target]
        keep = np.nonzero(rows >= 0)[0]
        keys.append((a * r + rows[keep]) * shape[1] + b * r + keep)
        layer.append(np.full(len(keep), d))
        contributions.append((value.real if real else value) * weight[keep])
    # the sorted distinct keys and each key's slot among them; asking for
    # the inverse keeps np.unique on its sorting path, which loads no numpy.ma
    found, slot = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros((len(Fs), len(found)), dtype=dtype)
    np.add.at(total, (np.concatenate(layer), slot),
              np.concatenate(contributions))
    nonzero = np.any(total != 0, axis=0)
    return Entries(*np.divmod(found[nonzero], shape[1]), total[:, nonzero],
                   shape)


def rep_apply(f: Union[NCPoly, MatPoly], rep: RepMatrices, q_val: float,
              indices: Optional[np.ndarray] = None) -> np.ndarray:
    """The dense block of f in rep: rep_entries([f]) scattered into zeros
    of its dtype, so each entry is its word contributions summed in word
    order, and 0 where rep_entries stores nothing.  For tests, demos and
    bench/make_refs.py; the norm paths and pbw_gram_min_singular take the
    entries."""
    rows, cols, values, shape = rep_entries([f], rep, q_val, indices)
    out = np.zeros(shape, dtype=values.dtype)
    out[rows, cols] = values[0]
    return out


def certify_compression(rep: RepMatrices, word_length_bound: int) -> np.ndarray:
    """Indices of the subspace where products of <= L letters act exactly.

    Each generator letter moves the truncation level by at most one, so
    below level N - L the truncated products agree with the untruncated
    operator.  L > N raises TruncationError.
    """
    if word_length_bound < 0:
        raise ValueError("word length bound must be >= 0")
    limit = rep.cutoff - word_length_bound
    if limit < 0:
        raise TruncationError(
            f"truncation too small: N={rep.cutoff} < L={word_length_bound}")
    return np.nonzero(rep.levels <= limit)[0]


def compress(mat: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """A full dense matrix compressed to indices (for bench/make_refs.py)."""
    return np.asarray(mat)[np.ix_(indices, indices)]
