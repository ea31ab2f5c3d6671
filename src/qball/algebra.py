"""The free *-algebra on generators z_1, ..., z_n, with exact coefficients.

An NCPoly is a finite sum of free words whose coefficients are Laurent
polynomials in q over the Gaussian rationals, held as one lifted state:
Gaussian-integer Laurent numerators per word over one common denominator,
in lowest terms.  add_lifted and mul_lifted are the ring operations on
lifted states, the product taking the product of two words as a parameter
(free_product here, the PBW product in qball.rewrite); NCPoly's +, - and *
are these operations with free_product.  No commutation relations are
applied at this layer; normal ordering lives in qball.rewrite.
compositions enumerates the multi-indices that label both canonical words
and Fock basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple


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


# An integer Laurent polynomial in q: {exponent: nonzero int}.
Laurent = Dict[int, int]

# Gaussian-integer numerators over one common denominator, as real and
# imaginary integer Laurent maps {word: (re, im)}.  No map holds a zero, no
# word two empty maps.
State = Dict[Word, Tuple[Laurent, Laurent]]

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


class NCPoly:
    """Finite sum of free *-words with coefficients in Q(i)[q, q^-1].

    terms maps each word to its Gaussian-integer Laurent numerators
    (re, im) and den > 0 is their one denominator, in lowest terms: no map
    holds a zero, no word two empty maps, gcd(den, every numerator) = 1,
    and 0 has den 1.  So == is exact structural equality.  Immutable: the
    constructor copies terms, and callers only read them.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, terms: State | None = None, den: int = 1):
        if n < 1:
            raise ContextError(f"need n >= 1, got {n}")
        if den < 1:
            raise ValueError(f"need a denominator >= 1, got {den}")
        clean: State = {}
        g = den
        for word, (re, im) in (terms or {}).items():
            re = {k: c for k, c in re.items() if c}
            im = {k: c for k, c in im.items() if c}
            if re or im:
                _check_word(word, n)
                clean[word] = re, im
                g = gcd(g, *re.values(), *im.values())
        if g > 1:
            clean = {w: ({k: c // g for k, c in re.items()},
                         {k: c // g for k, c in im.items()})
                     for w, (re, im) in clean.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "NCPoly":
        return NCPoly(n)

    @staticmethod
    def one(n: int) -> "NCPoly":
        return NCPoly.constant(n, {0: 1})

    @staticmethod
    def constant(n: int, re: Laurent, im: Laurent | None = None,
                 den: int = 1) -> "NCPoly":
        """The scalar (re + i*im)/den for integer Laurent maps
        {exponent: int}; scale a polynomial by multiplying with one."""
        return NCPoly(n, {(): (re, im or {})}, den)

    @staticmethod
    def generator(n: int, index: int, starred: bool = False) -> "NCPoly":
        return NCPoly.from_word(n, (Letter(index, starred),))

    @staticmethod
    def from_word(n: int, word: Word) -> "NCPoly":
        return NCPoly(n, {tuple(word): ({0: 1}, {})})

    # -- arithmetic ---------------------------------------------------

    def _require_same_context(self, other: "NCPoly") -> None:
        if self.n != other.n:
            raise ContextError(
                f"mixed contexts: n={self.n} vs n={other.n}")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._require_same_context(other)
        return NCPoly(self.n, *add_lifted((self.terms, self.den),
                                          (other.terms, other.den)))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        self._require_same_context(other)
        return NCPoly(self.n, *add_lifted((self.terms, self.den),
                                          (other.terms, other.den), -1))

    def __neg__(self) -> "NCPoly":
        return NCPoly.zero(self.n) - self

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """Free (concatenation) product; bilinear, no relations applied."""
        self._require_same_context(other)
        return NCPoly(self.n, *mul_lifted((self.terms, self.den),
                                          (other.terms, other.den),
                                          free_product))

    def adjoint(self) -> "NCPoly":
        """The involution: reverse words, star letters, conjugate coefficients."""
        return NCPoly(self.n, {
            tuple(Letter(l.index, not l.starred) for l in reversed(word)):
            (re, {k: -c for k, c in im.items()})
            for word, (re, im) in self.terms.items()}, self.den)

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
        return (self.n == other.n and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(
            (word, frozenset(re.items()), frozenset(im.items()))
            for word, (re, im) in self.terms.items())))

    def __repr__(self) -> str:
        return f"NCPoly(n={self.n}, {self.terms!r}, den={self.den})"


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
