"""The free *-algebra on generators z_1, ..., z_n.

Elements are finite sums of free words with Scalar coefficients.  No
commutation relations are applied at this layer; normal ordering lives in
qball.rewrite.  compositions enumerates the multi-indices that label both
canonical words and Fock basis vectors.  lift writes a polynomial's
coefficients as Gaussian-integer numerators over one common denominator,
the state the parser, the rewriter and the printer work in; add_lifted and
mul_lifted are its ring operations, the product taking the product of two
words as a parameter (free_product here, the PBW product in qball.rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import (Callable, Dict, Iterable, List, NamedTuple, Sequence,
                    Tuple, Union)

from .scalars import Scalar


class ContextError(ValueError):
    """Mismatched or invalid algebra contexts."""


class Letter(NamedTuple):
    index: int          # generator index, 1-based
    starred: bool       # True for the adjoint generator z_j*

    def __str__(self) -> str:
        return f"z{self.index}" + ("'" if self.starred else "")


Word = Tuple[Letter, ...]

BALL = "ball"
SPHERE = "sphere"


@dataclass(frozen=True)
class AlgebraContext:
    n: int
    mode: str = BALL

    def __post_init__(self):
        if self.n < 1:
            raise ContextError(f"need n >= 1 generators, got {self.n}")
        if self.mode not in (BALL, SPHERE):
            raise ContextError(f"unknown mode {self.mode!r}")


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """All m in Z_+^parts with |m| = total, in lexicographic order."""
    out: List[Tuple[int, ...]] = []
    if parts == 0:
        return [()] if total == 0 else out

    def rec(prefix: Tuple[int, ...], left: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (left,))
            return
        for v in range(left + 1):
            rec(prefix + (v,), left - v, slots - 1)

    rec((), total, parts)
    return out


def _check_word(word: Word, n: int) -> None:
    for letter in word:
        if not 1 <= letter.index <= n:
            raise ContextError(
                f"letter {letter} out of range for n={n}")


class NCPoly:
    """Finite sum of free *-words with exact Scalar coefficients.

    Immutable; the term map stores no zero coefficients, so == is exact
    structural equality of canonical sparse forms.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Word, Scalar] | None = None):
        if n < 1:
            raise ContextError(f"need n >= 1, got {n}")
        clean: Dict[Word, Scalar] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff.is_zero():
                    continue
                word = tuple(word)
                _check_word(word, n)
                clean[word] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "NCPoly":
        return NCPoly(n)

    @staticmethod
    def one(n: int) -> "NCPoly":
        return NCPoly(n, {(): Scalar.one()})

    @staticmethod
    def from_scalar(n: int, s: Scalar) -> "NCPoly":
        return NCPoly(n, {(): s})

    @staticmethod
    def generator(n: int, index: int, starred: bool = False) -> "NCPoly":
        return NCPoly(n, {(Letter(index, starred),): Scalar.one()})

    @staticmethod
    def from_word(n: int, word: Word, coeff: Scalar | None = None) -> "NCPoly":
        return NCPoly(n, {tuple(word): coeff if coeff is not None else Scalar.one()})

    # -- arithmetic ---------------------------------------------------

    def _require_same_context(self, other: "NCPoly") -> None:
        if self.n != other.n:
            raise ContextError(
                f"mixed contexts: n={self.n} vs n={other.n}")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._require_same_context(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            s = out.get(word)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                out.pop(word, None)
            else:
                out[word] = s
        return NCPoly(self.n, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """Free (concatenation) product; bilinear, no relations applied."""
        self._require_same_context(other)
        out: Dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return NCPoly(self.n, out)

    def scale(self, s: Union[Scalar, int]) -> "NCPoly":
        if isinstance(s, int):
            s = Scalar.from_rational(s)
        return NCPoly(self.n, {w: s * c for w, c in self.terms.items()})

    def adjoint(self) -> "NCPoly":
        """The involution: reverse words, star letters, conjugate coefficients."""
        out: Dict[Word, Scalar] = {}
        for word, coeff in self.terms.items():
            starred = tuple(
                Letter(l.index, not l.starred) for l in reversed(word))
            out[starred] = coeff.conjugate()
        return NCPoly(self.n, out)

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Length of the longest word (0 for scalars and for 0)."""
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"NCPoly(n={self.n}, 0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            wtxt = "*".join(str(l) for l in word) or "1"
            parts.append(f"{self.terms[word]!r}·{wtxt}")
        return f"NCPoly(n={self.n}, " + " + ".join(parts) + ")"


def is_holomorphic(p: NCPoly) -> bool:
    """True iff no word of p contains a starred letter."""
    return all(not letter.starred for word in p.terms for letter in word)


class MatPoly:
    """A matrix with NCPoly entries (one matrix level of the algebra).

    Rectangular shapes are allowed (rows and columns of zeros do not change
    the operator norm, so a row matrix needs no padding).
    """

    def __init__(self, entries: Sequence[Sequence[NCPoly]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and equally long")
        n = rows[0][0].n
        for r in rows:
            for p in r:
                if p.n != n:
                    raise ValueError("entries must share the same n")
        self.entries = rows
        self.shape = (len(rows), len(rows[0]))
        self.n = n

    def degree(self) -> int:
        return max(p.degree() for r in self.entries for p in r)

    def is_holomorphic(self) -> bool:
        return all(is_holomorphic(p) for r in self.entries for p in r)


# An integer Laurent polynomial in q: {exponent: nonzero int}.
Laurent = Dict[int, int]

# Gaussian-integer numerators over one common denominator, as real and
# imaginary integer Laurent maps {word: (re, im)}.  No map holds a zero, no
# word two empty maps.
State = Dict[Word, Tuple[Laurent, Laurent]]


def lift(p: NCPoly) -> Tuple[State, int]:
    """p as Gaussian-integer numerators over the lcm D of its denominators."""
    den = 1
    for coeff in p.terms.values():
        for _, c in coeff.items():
            den = lcm(den, c.re.denominator, c.im.denominator)
    state = {word: ({k: c.re.numerator * (den // c.re.denominator)
                     for k, c in coeff.items() if c.re},
                    {k: c.im.numerator * (den // c.im.denominator)
                     for k, c in coeff.items() if c.im})
             for word, coeff in p.terms.items()}
    return state, den


# A state over its denominator: the value sum_w state[w] * w / den, den > 0.
Lifted = Tuple[State, int]

# The product of two words as (word, integer Laurent coefficient) terms.
WordProduct = Callable[[Word, Word], Iterable[Tuple[Word, Laurent]]]


def free_product(u: Word, v: Word) -> Iterable[Tuple[Word, Laurent]]:
    """Concatenation: the product of the free algebra."""
    return ((u + v, {0: 1}),)


def _addmul(state: State, w: Word, lp: Laurent,
            coeff: Tuple[Laurent, Laurent]) -> None:
    """state[w] += lp * coeff in place for a real lp, dropping zero
    entries; the real and imaginary parts never mix."""
    target = state.get(w)
    if target is None:
        target = state[w] = ({}, {})
    for part, acc in zip(coeff, target):
        for k1, a in part.items():
            for k2, c in lp.items():
                k = k1 + k2
                v = acc.get(k, 0) + a * c
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    if not (target[0] or target[1]):
        del state[w]


def _gauss_mul(x: Tuple[Laurent, Laurent],
               y: Tuple[Laurent, Laurent]) -> Tuple[Laurent, Laurent]:
    """The product of two Gaussian-integer Laurent coefficients."""
    (xr, xi), (yr, yi) = x, y
    re: Laurent = {}
    im: Laurent = {}
    for acc, sign, a, b in ((re, 1, xr, yr), (re, -1, xi, yi),
                            (im, 1, xr, yi), (im, 1, xi, yr)):
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                v = acc.get(k, 0) + sign * c1 * c2
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    return re, im


def add_lifted(a: Lifted, b: Lifted, sign: int = 1) -> Lifted:
    """a + sign * b over the lcm of the denominators; a and b are read only,
    and the terms keep a's order, then b's new words."""
    (sa, da), (sb, db) = a, b
    den = lcm(da, db)
    ka, kb = den // da, {0: sign * (den // db)}
    out: State = {w: ({k: c * ka for k, c in re.items()},
                      {k: c * ka for k, c in im.items()})
                  for w, (re, im) in sa.items()}
    for w, coeff in sb.items():
        _addmul(out, w, kb, coeff)
    return out, den


def mul_lifted(a: Lifted, b: Lifted, product: WordProduct) -> Lifted:
    """a * b over the product of the denominators, bilinear in the word
    product; a and b are read only."""
    (sa, da), (sb, db) = a, b
    out: State = {}
    for u, cu in sa.items():
        for v, cv in sb.items():
            coeff = _gauss_mul(cu, cv)
            for w, lp in product(u, v):
                _addmul(out, w, lp, coeff)
    return out, da * db


def _lower(state: State, den: int, n: int) -> NCPoly:
    """The polynomial a lifted state stands for: one division per coefficient."""
    return NCPoly(n, {w: Scalar.from_integers(re, im, den)
                      for w, (re, im) in state.items()})


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    """Free-algebra product (no relations)."""
    return a * b


def poly_adjoint(a: NCPoly) -> NCPoly:
    """The *-involution."""
    return a.adjoint()
