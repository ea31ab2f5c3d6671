"""Normal ordering for the twisted commutation relations.

The oriented rules push starred letters to the right and sort each block by
ascending generator index:

  R1: z_k z_j       -> q^-1 z_j z_k                       (k > j)
  R2: z_k* z_j*     -> q    z_j* z_k*                     (k > j)
  R3: z_j* z_k      -> q    z_k z_j*                      (j != k)
  R4: z_j* z_j      -> q^2 z_j z_j* + (1-q^2)(1 - sum_{k>j} z_k z_k*)

In sphere mode, canonical words with both a z_1 and a z_1* additionally lose
one such pair (rule R5) by commuting a z_1* leftward and substituting
z_1 z_1* = 1 - sum_{k>=2} z_k z_k*, so sphere normal forms satisfy
alpha_1 * beta_1 = 0.

Every rule coefficient lies in Z[q, q^-1], so rule replacements and the
cached normal form of each word are integer Laurent polynomials
{q-exponent: int}.  Words are normalized prefix first, one letter at a
time, so the one word cache holds the normal forms of prefixes and the
products canonical word * letter: the PBW product table.  The user's
Gaussian-rational coefficients are applied once, exactly, when normalize
assembles the result.

normalize and the single-step path (reduce_step, normalize_by_steps, and
confluent, which compares their fixed points exactly) work on the input's
own lifted state over Z[i][q, q^-1] (NCPoly.terms over NCPoly.den), updated
by one multiply-add; the steppers update a copy in place, so the input is
never changed.  normalize_lifted returns the normal state before it is
brought to lowest terms, for printers that read the numerators.
pbw_product exposes the word cache as the product of the quotient,
u, v -> NF(uv); qball normal-form parses with it, so its input is never
expanded in the free algebra.
defining_relations gives the relations R1-R5 orient, as polynomials.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import (BALL, SPHERE, AlgebraContext, Laurent, Letter, NCPoly,
                      State, Word, WordProduct, _addmul, compositions)

Expansion = List[Tuple[Laurent, Word]]

_ONE_MINUS_Q2: Laurent = {0: 1, 2: -1}
_Q2_MINUS_ONE: Laurent = {0: -1, 2: 1}


def find_violation(word: Word) -> Optional[int]:
    """Leftmost position with an adjacent-pair violation, or None."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a.starred and not b.starred:
            return i
        if a.starred == b.starred and a.index > b.index:
            return i
    return None


def _adjacent_violations(word: Word) -> List[int]:
    return [i for i in range(len(word) - 1)
            if _pair_rule(word[i], word[i + 1]) is not None]


def _pair_rule(a: Letter, b: Letter) -> Optional[str]:
    if a.starred and not b.starred:
        return "R4" if a.index == b.index else "R3"
    if not a.starred and not b.starred and a.index > b.index:
        return "R1"
    if a.starred and b.starred and a.index > b.index:
        return "R2"
    return None


def _expand_pair(a: Letter, b: Letter, n: int) -> Expansion:
    """Replacement terms for the two-letter window (a, b)."""
    rule = _pair_rule(a, b)
    if rule == "R1":
        return [({-1: 1}, (b, a))]
    if rule in ("R2", "R3"):
        return [({1: 1}, (b, a))]
    if rule == "R4":
        j = a.index
        out: Expansion = [
            ({2: 1}, (Letter(j, False), Letter(j, True))),
            (_ONE_MINUS_Q2, ()),
        ]
        for k in range(j + 1, n + 1):
            out.append((_Q2_MINUS_ONE, (Letter(k, False), Letter(k, True))))
        return out
    raise ValueError("no rule applies to this pair")


def apply_pair_rule(word: Word, pos: int, n: int) -> Expansion:
    """Apply the adjacent rule at pos, returning whole-word replacements."""
    prefix, suffix = word[:pos], word[pos + 2:]
    return [(c, prefix + mid + suffix)
            for c, mid in _expand_pair(word[pos], word[pos + 1], n)]


def word_exponents(word: Word, n: int) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(alpha, beta) multi-indices if the word is canonically ordered."""
    if find_violation(word) is not None:
        return None
    alpha = [0] * n
    beta = [0] * n
    for letter in word:
        (beta if letter.starred else alpha)[letter.index - 1] += 1
    return tuple(alpha), tuple(beta)


def exponents_word(alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> Word:
    word: List[Letter] = []
    for j, e in enumerate(alpha, start=1):
        word.extend([Letter(j, False)] * e)
    for j, e in enumerate(beta, start=1):
        word.extend([Letter(j, True)] * e)
    return tuple(word)


def r5_applicable(word: Word, ctx: AlgebraContext) -> bool:
    if ctx.mode != SPHERE:
        return False
    ab = word_exponents(word, ctx.n)
    if ab is None:
        return False
    alpha, beta = ab
    return alpha[0] >= 1 and beta[0] >= 1


def apply_r5(word: Word, n: int) -> Expansion:
    """Eliminate one z_1/z_1* pair from a canonical word (sphere relation)."""
    alpha, beta = word_exponents(word, n)
    shift = -sum(alpha[1:])
    head = (Letter(1, False),) * (alpha[0] - 1)
    tail_unstarred = exponents_word((0,) + alpha[1:], (0,) * n)
    tail_starred = exponents_word((0,) * n, (beta[0] - 1,) + beta[1:])
    tail = tail_unstarred + tail_starred
    out: Expansion = [({shift: 1}, head + tail)]
    for k in range(2, n + 1):
        pair = (Letter(k, False), Letter(k, True))
        out.append(({shift: -1}, head + pair + tail))
    return out


def is_canonical_word(word: Word, ctx: AlgebraContext) -> bool:
    if find_violation(word) is not None:
        return False
    return not r5_applicable(word, ctx)


# -- full normalization (prefix first, memoized) ---------------------

_NF_CACHE: Dict[Tuple[int, str, Word], Dict[Word, Laurent]] = {}


def _normalize_word(word: Word, ctx: AlgebraContext) -> Dict[Word, Laurent]:
    """Normal form of one word, over Z[q, q^-1]; the result is shared.

    The word is normalized prefix first: NF(w) is the sum of lp_u NF(u w[-1])
    over the terms lp_u u of NF(w[:-1]).  Once the prefix is canonical, a
    pair rule can apply only where it meets the last letter, and otherwise
    R5 to the whole word, so the cache holds prefix normal forms and the
    products canonical word * letter.
    """
    key = (ctx.n, ctx.mode, word)
    cached = _NF_CACHE.get(key)
    if cached is not None:
        return cached
    head = word[:-1]
    head_nf = _normalize_word(head, ctx) if head else {head: {0: 1}}
    if head not in head_nf:
        expansion = [(lp, u + word[-1:]) for u, lp in head_nf.items()]
    elif head and _pair_rule(word[-2], word[-1]) is not None:
        expansion = apply_pair_rule(word, len(word) - 2, ctx.n)
    elif r5_applicable(word, ctx):
        expansion = apply_r5(word, ctx.n)
    else:
        result = {word: {0: 1}}
        _NF_CACHE[key] = result
        return result
    acc: Dict[Word, Laurent] = {}
    for coeff, replacement in expansion:
        for w, lp in _normalize_word(replacement, ctx).items():
            target = acc.setdefault(w, {})
            for k1, c1 in coeff.items():
                for k2, c2 in lp.items():
                    k = k1 + k2
                    v = target.get(k, 0) + c1 * c2
                    if v:
                        target[k] = v
                    else:
                        del target[k]
    result = {w: lp for w, lp in acc.items() if lp}
    _NF_CACHE[key] = result
    return result


def pbw_product(ctx: AlgebraContext) -> WordProduct:
    """The product of the quotient on words: u, v -> the terms of NF(uv),
    read from the word cache.  For canonical u and v this is the PBW
    product, so algebra.mul_lifted of two normal states is the normal state
    of their product."""
    def product(u: Word, v: Word):
        return _normalize_word(u + v, ctx).items()
    return product


def _normal_state(state: State, ctx: AlgebraContext) -> State:
    """The normal form of a lifted state, over the same denominator."""
    out: State = {}
    for word, coeff in state.items():
        for w, lp in _normalize_word(word, ctx).items():
            _addmul(out, w, lp, coeff)
    return out


def normalize_lifted(p: NCPoly, ctx: AlgebraContext) -> Tuple[State, int]:
    """The normal form of p as a lifted state over p's denominator: its
    Gaussian-integer numerators accumulated per (canonical word,
    q-exponent), not yet brought to lowest terms."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    return _normal_state(p.terms, ctx), p.den


def normalize(p: NCPoly, ctx: AlgebraContext) -> NCPoly:
    """Unique normal form: every word canonical for the given context."""
    return NCPoly(ctx.n, *normalize_lifted(p, ctx))


# -- single-step reduction with pluggable strategy --------------------

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
RANDOM = "random"
STRATEGIES = (LEFTMOST, RIGHTMOST, RANDOM)


def _check_step_args(p: NCPoly, ctx: AlgebraContext, strategy: str,
                     random_source: object, source_name: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == RANDOM and random_source is None:
        raise ValueError(f"random strategy needs {source_name}")
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")


def _rule_sites(word: Word, ctx: AlgebraContext,
                sites: Dict[Word, List[Optional[int]]]) -> List[Optional[int]]:
    """Pair positions of the rules applying to word, then None for R5."""
    out = sites.get(word)
    if out is None:
        out = _adjacent_violations(word)
        if r5_applicable(word, ctx):
            out.append(None)
        sites[word] = out
    return out


def _copy(state: State) -> State:
    """A state whose Laurent maps _step may update without touching the
    original's."""
    return {w: (dict(re), dict(im)) for w, (re, im) in state.items()}


def _step(state: State, ctx: AlgebraContext, strategy: str,
          rng: Optional[random.Random],
          sites: Dict[Word, List[Optional[int]]]) -> bool:
    """Apply one rule instance to state in place; False at a fixed point.

    The candidates are the words in (length, word) order, each with its
    pair positions and then R5; leftmost takes the first, rightmost the
    last and random draws one with rng.choice.  sites memoizes each word's
    rule positions.
    """
    candidates = [(word, pos)
                  for word in sorted(state, key=lambda w: (len(w), w))
                  for pos in _rule_sites(word, ctx, sites)]
    if not candidates:
        return False
    if strategy == LEFTMOST:
        word, pos = candidates[0]
    elif strategy == RIGHTMOST:
        word, pos = candidates[-1]
    else:
        word, pos = rng.choice(candidates)
    coeff = state.pop(word)
    if pos is None:
        expansion = apply_r5(word, ctx.n)
    else:
        expansion = apply_pair_rule(word, pos, ctx.n)
    for lp, w in expansion:
        _addmul(state, w, lp, coeff)
    return True


def reduce_step(p: NCPoly, ctx: AlgebraContext,
                strategy: str = LEFTMOST,
                rng: Optional[random.Random] = None) -> NCPoly:
    """Apply exactly one rule instance to one word; fixed points unchanged."""
    _check_step_args(p, ctx, strategy, rng, "an rng")
    state = _copy(p.terms)
    if not _step(state, ctx, strategy, rng, {}):
        return p
    return NCPoly(ctx.n, state, p.den)


_MAX_STEPS = 200000


def _fixed_point(state: State, ctx: AlgebraContext, strategy: str,
                 seed: Optional[int], max_steps: int) -> State:
    """Step state in place until no rule applies, and return it."""
    rng = random.Random(seed) if strategy == RANDOM else None
    sites: Dict[Word, List[Optional[int]]] = {}
    for _ in range(max_steps + 1):
        if not _step(state, ctx, strategy, rng, sites):
            return state
    raise RuntimeError(f"no fixed point within {max_steps} steps")


def normalize_by_steps(p: NCPoly, ctx: AlgebraContext,
                       strategy: str = LEFTMOST,
                       seed: Optional[int] = None,
                       max_steps: int = _MAX_STEPS) -> NCPoly:
    """Apply single rule steps until none applies.

    The steps are those of repeated reduce_step calls, with one
    random.Random(seed) for the random strategy, which therefore needs a
    seed.  A copy of p's lifted state is updated in place, and RuntimeError
    is raised if the fixed point needs more than max_steps rule
    applications.
    """
    _check_step_args(p, ctx, strategy, seed, "a seed")
    return NCPoly(ctx.n, _fixed_point(_copy(p.terms), ctx, strategy, seed,
                                      max_steps), p.den)


# The (strategy, seed) runs that confluent compares with normalize.
CONFLUENCE_RUNS = ((LEFTMOST, None), (RIGHTMOST, None),
                   (RANDOM, 0), (RANDOM, 1), (RANDOM, 2))


def confluent(p: NCPoly, ctx: AlgebraContext) -> bool:
    """Whether every run of CONFLUENCE_RUNS reaches normalize's normal form,
    compared exactly as lifted states over p's one denominator."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    expected = _normal_state(p.terms, ctx)
    return all(_fixed_point(_copy(p.terms), ctx, strategy, seed,
                            _MAX_STEPS) == expected
               for strategy, seed in CONFLUENCE_RUNS)


# -- misc -------------------------------------------------------------

def canonical_monomials(n: int, max_degree: int,
                        ctx: Optional[AlgebraContext] = None) -> Iterator[Word]:
    """All canonical words of total degree <= max_degree, graded order."""
    if ctx is None:
        ctx = AlgebraContext(n, BALL)
    for degree in range(max_degree + 1):
        for da in range(degree + 1):
            betas = compositions(degree - da, n)
            for alpha in compositions(da, n):
                for beta in betas:
                    if ctx.mode == SPHERE and alpha[0] * beta[0] != 0:
                        continue
                    yield exponents_word(alpha, beta)


def defining_relations(ctx: AlgebraContext) -> List[NCPoly]:
    """LHS - RHS of the relations R1-R5 orient, so each normalizes to 0:
    z_j z_k - q z_k z_j (j < k), z_j* z_k - q z_k z_j* (j != k), R4 read as
    an identity, and in sphere mode 1 - sum_k z_k z_k*."""
    n = ctx.n
    z = [NCPoly.generator(n, j) for j in range(1, n + 1)]
    zs = [NCPoly.generator(n, j, True) for j in range(1, n + 1)]
    # rest[j] = 1 - sum_{k >= j} z_k z_k*, 0-based
    rest = [sum((-z[k] * zs[k] for k in range(j, n)), NCPoly.one(n))
            for j in range(n + 1)]
    q, q2 = NCPoly.constant(n, {1: 1}), NCPoly.constant(n, {2: 1})
    out = [z[j] * z[k] - q * z[k] * z[j]
           for j in range(n) for k in range(j + 1, n)]
    out += [zs[j] * z[k] - q * z[k] * zs[j]
            for j in range(n) for k in range(n) if j != k]
    out += [zs[j] * z[j] - q2 * z[j] * zs[j]
            - (NCPoly.one(n) - q2) * rest[j + 1] for j in range(n)]
    return out + [rest[0]] if ctx.mode == SPHERE else out
