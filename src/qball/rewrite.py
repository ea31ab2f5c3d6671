"""Normal ordering for the twisted commutation relations.

The oriented rules push starred letters to the right and sort each block by
ascending generator index:

  R1: z_k z_j       -> q^-1 z_j z_k                       (k > j)
  R2: z_k* z_j*     -> q    z_j* z_k*                     (k > j)
  R3: z_j* z_k      -> q    z_k z_j*                      (j != k)
  R4: z_j* z_j      -> q^2 z_j z_j* + (1-q^2)(1 - sum_{k>j} z_k z_k*)

In sphere mode, a canonical word with both a z_1 and a z_1* loses one such
pair (rule R5): its first z_1* commutes left past the unstarred letters of
index >= 2 to its last z_1, a factor q^-1 each, and z_1 z_1* becomes
1 - sum_{k>=2} z_k z_k*.  So sphere normal forms satisfy alpha_1 * beta_1 = 0.

The rules are one table, which normalize and the single-step path both
read: rule_sites lists a word's rule instances (pair positions, or None
for R5 where no pair rule applies; none exactly when the word is
canonical), and apply_rule gives the terms that replace the word.

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
never changed.  The stepper splits its copy into pending words, which a
rule applies to, and canonical words, and a step looks at the pending
words only; the canonical part is the fixed point once nothing is pending.
The steps are those taken over the whole state, because a canonical word
has no rule instance, and one rule_sites memo serves the five runs of
confluent, so each word is classified once per call.  pbw_product exposes
the word cache as the product of the quotient, u, v -> NF(uv); qball
normal-form parses with it, so its input is never expanded in the free
algebra.
defining_relations gives the relations R1-R5 orient, as polynomials.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import (BALL, SPHERE, AlgebraContext, Laurent, Letter, NCPoly,
                      State, Word, WordProduct, _addmul, _laurent_addmul,
                      compositions)

Expansion = List[Tuple[Laurent, Word]]
# A rule_sites memo: word -> its rule instances.
Sites = Dict[Word, List[Optional[int]]]

_ONE_MINUS_Q2: Laurent = {0: 1, 2: -1}
_Q2_MINUS_ONE: Laurent = {0: -1, 2: 1}
_Z1, _Z1_STAR = Letter(1, False), Letter(1, True)


def _violates(a: Letter, b: Letter) -> bool:
    """Whether one of R1-R4 applies to the adjacent letters a b: a starred
    letter before an unstarred one, or two of one kind out of index order."""
    return a.starred if a.starred != b.starred else a.index > b.index


def _r5_applies(word: Word, ctx: AlgebraContext) -> bool:
    """Whether R5 applies to a word no pair rule applies to."""
    return ctx.mode == SPHERE and _Z1 in word and _Z1_STAR in word


def rule_sites(word: Word, ctx: AlgebraContext) -> List[Optional[int]]:
    """Every rule instance in word: its pair positions in ascending order,
    or [None] when only R5 applies; [] exactly when word is canonical."""
    sites: List[Optional[int]] = [i for i in range(len(word) - 1)
                                  if _violates(word[i], word[i + 1])]
    return sites or ([None] if _r5_applies(word, ctx) else [])


def apply_rule(word: Word, site: Optional[int], n: int) -> Expansion:
    """The terms that replace word under the rule instance at site, a
    position of rule_sites(word, ctx)."""
    if site is None:
        # R5: the first z_1* moves left past the unstarred letters of
        # index >= 2 to the last z_1; z_1 z_1* = 1 - sum_{k>=2} z_k z_k*.
        last, first = word.count(_Z1) - 1, word.index(_Z1_STAR)
        head, tail = word[:last], word[last + 1:first] + word[first + 1:]
        shift = last + 1 - first
        return [({shift: 1}, head + tail)] + [
            ({shift: -1}, head + (Letter(k, False), Letter(k, True)) + tail)
            for k in range(2, n + 1)]
    a, b = word[site], word[site + 1]
    prefix, suffix = word[:site], word[site + 2:]
    if a.index != b.index or a.starred == b.starred:  # R1-R3: a swap
        return [({1 if a.starred else -1: 1}, prefix + (b, a) + suffix)]
    # R4: z_j* z_j
    return [({2: 1}, prefix + (b, a) + suffix),
            (_ONE_MINUS_Q2, prefix + suffix)] + [
        (_Q2_MINUS_ONE, prefix + (Letter(k, False), Letter(k, True)) + suffix)
        for k in range(a.index + 1, n + 1)]


def exponents_word(alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> Word:
    word: List[Letter] = []
    for j, e in enumerate(alpha, start=1):
        word.extend([Letter(j, False)] * e)
    for j, e in enumerate(beta, start=1):
        word.extend([Letter(j, True)] * e)
    return tuple(word)


def is_canonical_word(word: Word, ctx: AlgebraContext) -> bool:
    return not rule_sites(word, ctx)


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
    elif head and _violates(word[-2], word[-1]):
        expansion = apply_rule(word, len(word) - 2, ctx.n)
    elif _r5_applies(word, ctx):
        expansion = apply_rule(word, None, ctx.n)
    else:
        result = {word: {0: 1}}
        _NF_CACHE[key] = result
        return result
    acc: Dict[Word, Laurent] = {}
    for coeff, replacement in expansion:
        for w, lp in _normalize_word(replacement, ctx).items():
            _laurent_addmul(acc.setdefault(w, {}), coeff, lp)
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


def normalize(p: NCPoly, ctx: AlgebraContext) -> NCPoly:
    """Unique normal form: every word canonical for the given context."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    return NCPoly(ctx.n, _normal_state(p.terms, ctx), p.den)


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


def _classify(word: Word, ctx: AlgebraContext,
              sites: Sites) -> List[Optional[int]]:
    """rule_sites(word, ctx), memoized in sites."""
    found = sites.get(word)
    if found is None:
        found = sites[word] = rule_sites(word, ctx)
    return found


def _split(terms: State, ctx: AlgebraContext,
           sites: Sites) -> Tuple[State, State]:
    """Copies of the pending words of terms (a rule applies) and of its
    canonical words, whose Laurent maps _step may update in place."""
    pending: State = {}
    canonical: State = {}
    for w, (re, im) in terms.items():
        part = pending if _classify(w, ctx, sites) else canonical
        part[w] = (dict(re), dict(im))
    return pending, canonical


def _order(word: Word) -> Tuple[int, Word]:
    return len(word), word


def _step(pending: State, canonical: State, ctx: AlgebraContext,
          strategy: str, rng: Optional[random.Random], sites: Sites) -> bool:
    """Apply one rule instance to the state pending + canonical in place;
    False at a fixed point, which is when pending is empty.

    The candidates are the words in (length, word) order, each with its
    rule_sites; leftmost takes the first, rightmost the last and random
    draws one with rng.choice.  Canonical words have no sites, so only the
    pending words are looked at: leftmost and rightmost take the first or
    last site of the min or max pending word, and random draws from the
    same candidate list as over the whole state.  Each replacement term
    goes to the part its word belongs to; a word's class never changes, so
    a cancellation in either part is the cancellation in the whole state.
    sites memoizes rule_sites per word.
    """
    if not pending:
        return False
    if strategy == LEFTMOST:
        word = min(pending, key=_order)
        site = sites[word][0]
    elif strategy == RIGHTMOST:
        word = max(pending, key=_order)
        site = sites[word][-1]
    else:
        word, site = rng.choice([(w, s) for w in sorted(pending, key=_order)
                                 for s in sites[w]])
    coeff = pending.pop(word)
    for lp, w in apply_rule(word, site, ctx.n):
        _addmul(pending if _classify(w, ctx, sites) else canonical,
                w, lp, coeff)
    return True


def reduce_step(p: NCPoly, ctx: AlgebraContext,
                strategy: str = LEFTMOST,
                rng: Optional[random.Random] = None) -> NCPoly:
    """Apply exactly one rule instance to one word; fixed points unchanged."""
    _check_step_args(p, ctx, strategy, rng, "an rng")
    sites: Sites = {}
    pending, canonical = _split(p.terms, ctx, sites)
    if not _step(pending, canonical, ctx, strategy, rng, sites):
        return p
    return NCPoly(ctx.n, {**pending, **canonical}, p.den)


_MAX_STEPS = 200000


def _fixed_point(terms: State, ctx: AlgebraContext, strategy: str,
                 seed: Optional[int], max_steps: int, sites: Sites) -> State:
    """Step a copy of terms until no rule applies, and return the copy.

    The fixed point is reached when no pending word is left, and the
    canonical part is then the whole state.  sites memoizes rule_sites
    and may be shared by several runs on one input.
    """
    rng = random.Random(seed) if strategy == RANDOM else None
    pending, canonical = _split(terms, ctx, sites)
    for _ in range(max_steps + 1):
        if not _step(pending, canonical, ctx, strategy, rng, sites):
            return canonical
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
    return NCPoly(ctx.n, _fixed_point(p.terms, ctx, strategy, seed,
                                      max_steps, {}), p.den)


# The (strategy, seed) runs that confluent compares with normalize.
CONFLUENCE_RUNS = ((LEFTMOST, None), (RIGHTMOST, None),
                   (RANDOM, 0), (RANDOM, 1), (RANDOM, 2))


def confluent(p: NCPoly, ctx: AlgebraContext) -> bool:
    """Whether every run of CONFLUENCE_RUNS reaches normalize's normal form,
    compared exactly as lifted states over p's one denominator.  The runs
    share one rule_sites memo, so each word is classified once."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    expected = _normal_state(p.terms, ctx)
    sites: Sites = {}
    return all(_fixed_point(p.terms, ctx, strategy, seed, _MAX_STEPS,
                            sites) == expected
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
