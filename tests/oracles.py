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
* fraction_terms and fraction_poly convert between an NCPoly and reference
  terms, each coefficient a map {exponent: (re, im)} of Fractions;
  fraction_constant builds a scalar from Fraction parts.  The library
  holds Gaussian-integer numerators over one common denominator instead
  (algebra.NCPoly).
* fraction_value evaluates a reference coefficient at a numeric q, and
  reference_step applies one rewrite rule instance with Fraction
  arithmetic on those terms.
* fraction_print_poly renders a polynomial from its Fraction coefficients,
  one Gaussian rational at a time.  The library prints from Gaussian-integer
  numerators over one common denominator instead (parsing.print_state).
"""

import cmath
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from qball.algebra import Letter, NCPoly, Word
from qball.representations import (
    BoundaryConfig,
    RepMatrices,
    _fock_raising,
    graded_lex_basis,
)
from qball.rewrite import (_adjacent_violations, apply_pair_rule, apply_r5,
                           r5_applicable)


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


# -- Fraction reference arithmetic ------------------------------------

# A Gaussian rational (re, im), a reference coefficient {exponent: Gauss}
# with no zero entry, and reference terms {word: coefficient}.
Gauss = Tuple[Fraction, Fraction]
Coefficient = Dict[int, Gauss]
Terms = Dict[Word, Coefficient]


def fraction_terms(p: NCPoly) -> Terms:
    """p's coefficients as Fractions, one division per part."""
    return {word: {k: (Fraction(re.get(k, 0), p.den),
                       Fraction(im.get(k, 0), p.den))
                   for k in re.keys() | im.keys()}
            for word, (re, im) in p.terms.items()}


def fraction_poly(n: int, terms: Terms) -> NCPoly:
    """The polynomial of reference terms: every part brought to the lcm of
    the denominators."""
    den = 1
    for coeff in terms.values():
        for re, im in coeff.values():
            den = lcm(den, re.denominator, im.denominator)
    return NCPoly(n, {
        word: ({k: int(re * den) for k, (re, _) in coeff.items()},
               {k: int(im * den) for k, (_, im) in coeff.items()})
        for word, coeff in terms.items()}, den)


def fraction_constant(n: int, *terms) -> NCPoly:
    """The scalar sum of (re + i*im) q^k over (k, re, im) triples, each part
    anything Fraction takes ("3/4" included)."""
    return fraction_poly(n, {(): {k: (Fraction(re), Fraction(im))
                                  for k, re, im in terms}})


def fraction_value(coeff: Coefficient, q_val: float) -> complex:
    """A reference coefficient at q_val, summed by ascending exponent."""
    total = 0j
    for k in sorted(coeff):
        re, im = coeff[k]
        total += complex(float(re), float(im)) * q_val ** k
    return total


def reference_step(p: NCPoly, ctx, strategy: str, rng) -> NCPoly:
    """One rule instance applied to one word of p; p itself at a fixed point.

    The candidates are the words in (length, word) order, each with its
    pair positions and then R5; leftmost takes the first, rightmost the
    last and random draws one with rng.choice.
    """
    terms = fraction_terms(p)
    candidates = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        for pos in _adjacent_violations(word):
            candidates.append((word, pos))
        if r5_applicable(word, ctx):
            candidates.append((word, None))
    if not candidates:
        return p
    if strategy == "leftmost":
        word, pos = candidates[0]
    elif strategy == "rightmost":
        word, pos = candidates[-1]
    else:
        word, pos = rng.choice(candidates)
    coeff = terms.pop(word)
    if pos is None:
        expansion = apply_r5(word, ctx.n)
    else:
        expansion = apply_pair_rule(word, pos, ctx.n)
    zero = (Fraction(0), Fraction(0))
    for lp, w in expansion:
        target = terms.setdefault(w, {})
        for k1, (re, im) in coeff.items():
            for k2, c in lp.items():
                old_re, old_im = target.get(k1 + k2, zero)
                new = (old_re + re * c, old_im + im * c)
                if new != zero:
                    target[k1 + k2] = new
                else:
                    target.pop(k1 + k2, None)
        if not target:
            del terms[w]
    return fraction_poly(ctx.n, terms)


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
    coeffs = fraction_terms(f)
    best = 0.0
    for t in range(points):
        z = cmath.exp(2j * cmath.pi * t / points)
        total = 0j
        for word in sorted(coeffs, key=lambda w: (len(w), w)):
            total += (fraction_value(coeffs[word], q_val)
                      * _circle_word_value(word, z))
        best = max(best, abs(total))
    return best


# -- the Fraction printer ---------------------------------------------

def _rat_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _q_str(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _gauss_str(c: Gauss) -> str:
    """Both parts nonzero: 'a/b+c/d*i' (goes inside parentheses)."""
    re, im = c
    im_mag = abs(im)
    im_txt = "i" if im_mag == 1 else f"{_rat_str(im_mag)}*i"
    joiner = "+" if im > 0 else "-"
    return f"{_rat_str(re)}{joiner}{im_txt}"


def _mono_str(exponent: int, c: Gauss) -> Tuple[bool, Optional[str]]:
    """(sign, text) for a single q-term; text None means the factor 1."""
    re, im = c
    if im == 0:
        sign = re < 0
        mag = abs(re)
        pieces = []
        if mag != 1:
            pieces.append(_rat_str(mag))
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces) or None
    if re == 0:
        sign = im < 0
        mag = abs(im)
        pieces = [] if mag == 1 else [_rat_str(mag)]
        pieces.append("i")
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces)
    text = f"({_gauss_str(c)})"
    if exponent:
        text += f"*{_q_str(exponent)}"
    return False, text


def _scalar_sum_str(s: Coefficient) -> str:
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


def _scalar_factor(s: Coefficient) -> Tuple[bool, Optional[str]]:
    if len(s) == 1:
        return _mono_str(*next(iter(s.items())))
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
    terms = fraction_terms(p)
    parts = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        sign, stxt = _scalar_factor(terms[word])
        wtxt = _word_str(word)
        text = "*".join(t for t in (stxt, wtxt) if t) or "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)
