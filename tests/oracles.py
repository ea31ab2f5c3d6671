"""Independent constructions the tests check the library against.

These are oracles only; no library code calls them.

* cycle_matrix and boundary_generators build the whole boundary
  representation on l^2({m in Z_+^{n-1}}) (x) C^M as Kronecker products:
  the first generator is a diagonal q-weight tensored with the M-cycle
  shift (all M-th roots of unity at once), and only then turns each
  generator into the weighted index map the library evaluates (matrix_map).
  The library evaluates one character block per omega instead
  (boundary_block_generators).
* circle_grid_max evaluates an n = 1 polynomial as an ordinary function on
  the circle.
* fraction_print_poly renders a polynomial from its Fraction coefficients,
  one Gaussian rational at a time.  The library prints from Gaussian-integer
  numerators over one common denominator instead (parsing.print_state).
"""

import cmath
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from qball.algebra import Letter, NCPoly, Word
from qball.representations import (
    BoundaryConfig,
    RepMatrices,
    _fock_raising,
    graded_lex_basis,
)
from qball.scalars import GaussianRational, Scalar


def cycle_matrix(M: int) -> sp.csr_matrix:
    """The M-cycle permutation shift e_t -> e_{t+1 mod M}."""
    rows = [(t + 1) % M for t in range(M)]
    return sp.csr_matrix((np.ones(M, dtype=complex), (rows, range(M))),
                         shape=(M, M))


def matrix_map(mat: sp.spmatrix) -> Tuple[np.ndarray, np.ndarray]:
    """A square matrix with at most one nonzero per column, and no two in
    one row, as a weighted index map (target, weight); a zero column goes
    to the sink dim."""
    csc = sp.csc_matrix(mat)
    csc.eliminate_zeros()
    counts = np.diff(csc.indptr)
    assert counts.max(initial=0) <= 1, "a column with two nonzeros"
    assert len(set(csc.indices)) == len(csc.indices), "a row with two nonzeros"
    dim = csc.shape[0]
    cols = np.nonzero(counts)[0]
    target = np.full(dim + 1, dim)
    weight = np.zeros(dim + 1, dtype=complex)
    target[cols], weight[cols] = csc.indices, csc.data
    return target, weight


def map_matrix(target: np.ndarray, weight: np.ndarray) -> sp.csr_matrix:
    """The matrix of a weighted index map, its sink dropped."""
    dim = len(target) - 1
    cols = np.nonzero(target[:dim] != dim)[0]
    return sp.csr_matrix((weight[cols], (target[cols], cols)), shape=(dim, dim))


def boundary_generators(cfg: BoundaryConfig) -> RepMatrices:
    """Boundary-family representation annihilating the sphere relation.

    For n = 1 this is just the unitary M-cycle (exact, no truncation).
    """
    if cfg.n == 1:
        return RepMatrices(n=1, maps=[matrix_map(cycle_matrix(cfg.M))],
                           dim=cfg.M, levels=np.zeros(cfg.M, dtype=int),
                           cutoff=None)
    basis = graded_lex_basis(cfg.n - 1, cfg.N)
    index = {m: i for i, m in enumerate(basis)}
    dim0 = len(basis)
    weights = sp.diags([cfg.q_val ** sum(m) for m in basis], format="csr",
                       dtype=complex)
    mats = [sp.kron(weights, cycle_matrix(cfg.M), format="csr")]
    eye_m = sp.identity(cfg.M, dtype=complex, format="csr")
    for j in range(2, cfg.n + 1):
        # Fock action in the variables (m_2, ..., m_n): generator j sits at
        # slot j-1 of the (n-1)-index.
        raising = map_matrix(*_fock_raising(basis, index, j - 1, cfg.n - 1,
                                            cfg.N, cfg.q_val))
        mats.append(sp.kron(raising, eye_m, format="csr"))
    levels = np.repeat([sum(m) for m in basis], cfg.M)
    return RepMatrices(n=cfg.n, maps=[matrix_map(m) for m in mats],
                       dim=dim0 * cfg.M,
                       levels=np.asarray(levels, dtype=int), cutoff=cfg.N)


def _circle_word_value(word, z: complex) -> complex:
    out = 1 + 0j
    for letter in word:
        out *= z.conjugate() if letter.starred else z
    return out


def circle_grid_max(f, q_val: float, points: int) -> float:
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


# -- the Fraction printer ---------------------------------------------

def _rat_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _q_str(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _gauss_str(c: GaussianRational) -> str:
    """Both parts nonzero: 'a/b+c/d*i' (goes inside parentheses)."""
    im_mag = abs(c.im)
    im_txt = "i" if im_mag == 1 else f"{_rat_str(im_mag)}*i"
    joiner = "+" if c.im > 0 else "-"
    return f"{_rat_str(c.re)}{joiner}{im_txt}"


def _mono_str(exponent: int, c: GaussianRational) -> Tuple[bool, Optional[str]]:
    """(sign, text) for a single q-term; text None means the factor 1."""
    if c.im == 0:
        sign = c.re < 0
        mag = abs(c.re)
        pieces = []
        if mag != 1:
            pieces.append(_rat_str(mag))
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces) or None
    if c.re == 0:
        sign = c.im < 0
        mag = abs(c.im)
        pieces = [] if mag == 1 else [_rat_str(mag)]
        pieces.append("i")
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces)
    text = f"({_gauss_str(c)})"
    if exponent:
        text += f"*{_q_str(exponent)}"
    return False, text


def _scalar_sum_str(s: Scalar) -> str:
    parts = []
    for k, c in sorted(s.items()):
        sign, text = _mono_str(k, c)
        if text is None:
            text = "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)


def _scalar_factor(s: Scalar) -> Tuple[bool, Optional[str]]:
    mono = s.monomial()
    if mono is not None:
        return _mono_str(*mono)
    return False, f"({_scalar_sum_str(s)})"


def _word_str(word: Word) -> Optional[str]:
    if not word:
        return None
    runs: List[Tuple[Letter, int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return "*".join(str(l) if e == 1 else f"{l}^{e}" for l, e in runs)


def fraction_print_poly(p: NCPoly) -> str:
    """Render a polynomial; parse_expression inverts this exactly."""
    if p.is_zero():
        return "0"
    parts = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        sign, stxt = _scalar_factor(p.terms[word])
        wtxt = _word_str(word)
        text = "*".join(t for t in (stxt, wtxt) if t) or "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)
