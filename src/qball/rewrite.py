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

rule_sites and apply_rule are the rule table; the single-step path
(reduce_step, normalize_by_steps) applies it one instance at a time.
normalize instead folds a word's letters into the PBW product table, which
_times_letter gives in closed form, and takes only R5 from the rules, so
confluent compares two independent codes.  It steps no run: it reduces
each word reachable from the input once through the rule table, checks
that every rule site of the word gives the same result, and compares the
result of each of the input's words with normalize's, word by word, never
reading the input's coefficients; True means that every run of every
strategy ends at normalize's result (see confluent).  Words that differ are
caught even where their differences cancel in the input, which a
comparison of the two results for the whole input would miss.
Coefficients lie in Z[q, q^-1] until normalize applies the input's own
Gaussian-rational ones, once, to its lifted state (NCPoly.terms over
NCPoly.den), which is never changed.
pbw_product is the product of the quotient, u, v -> NF(uv), which qball
normal-form parses with, so its input is never expanded freely.
defining_relations gives the relations R1-R5 orient, as polynomials.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .algebra import (SPHERE, AlgebraContext, Laurent, Letter, NCPoly,
                      State, Word, WordProduct, _addmul, _laurent_addmul,
                      compositions)

Expansion = List[Tuple[Laurent, Word]]

_ONE_MINUS_Q2: Laurent = {0: 1, 2: -1}
_Q2_MINUS_ONE: Laurent = {0: -1, 2: 1}
_Z1, _Z1_STAR = Letter(1, False), Letter(1, True)
_STARRED = itemgetter(1)


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
        # R5, as in the module docstring: the first z_1* meets the last z_1.
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
    return tuple(Letter(j, s) for s, exps in ((False, alpha), (True, beta))
                 for j, e in enumerate(exps, start=1) for _ in range(e))


def is_canonical_word(word: Word, ctx: AlgebraContext) -> bool:
    return not rule_sites(word, ctx)


# -- full normalization: the PBW product table in closed form ---------

_NF_CACHE: Dict[Tuple[int, str, Word], Dict[Word, Laurent]] = {}


def _times_letter(u: Word, letter: Letter, n: int) -> Expansion:
    """The ball normal form of u * letter for canonical u = z^a z*^b.

    With A>l = sum_{j>l} a_j, B<k = sum_{j<k} b_j, B>k and B(k,l) alike
    (k < j < l), and y_{k+1} = 1 - sum_{l>k} z_l z_l*:
      u z_k* = q^{B>k} z^a z*^{b+e_k},
      u z_k  = q^{B>k+2b_k+B<k-A>k} z^{a+e_k} z*^b
               + q^{B>k} (1-q^{2b_k}) (z^a z*^{b-e_k} - sum_{l>k}
                 q^{b_k-1+B<k-A>l+B(k,l)} z^{a+e_l} z*^{b-e_k+e_l}).
    Each letter passed gives q (R2, R3) or q^-1 (R1).  z_k* passes the
    z_j*, j > k.  z_k passes them too, and z_k*^b z_k = q^{2b} z_k z_k*^b
    + (1-q^{2b}) z_k*^{b-1} y_{k+1}: b = 1 is R4, and z_k* times the case
    b-1 is the case b by R4, as q^{2b-2}(1-q^2) + 1-q^{2b-2} = 1-q^{2b},
    because z_k* commutes with y_{k+1}: z_k* z_l z_l* = q z_l z_k* z_l*
    (R3) = z_l z_l* z_k* (R2) for l > k.  Then z_k passes the z_j*, j < k,
    and the z_j, j > k; the z_l of y_{k+1} passes the other z_k*, the z_j*,
    j < k, and the z_j, j > l, and z_l* the z_j*, k < j < l.  The steps
    are identities and the words canonical, so this is the normal form
    (Bergman's diamond lemma).  Each word is a few slices of u."""
    k, starred = letter
    # u[:a] = z^a and u[a:] = z*^b are sorted; u[r:t] = z_k*^{b_k}
    a = bisect_left(u, True, key=_STARRED)
    r, t = bisect_left(u, (k, True), a), bisect_right(u, (k, True), a)
    above = len(u) - t
    if starred:
        return [({above: 1}, u[:t] + (letter,) + u[t:])]
    p, below, bk = bisect_right(u, letter, 0, a), r - a, t - r
    terms = [({above + 2 * bk + below - a + p: 1},
              u[:p] + (letter,) + u[p:])]
    if bk:
        terms.append(({above: 1, above + 2 * bk: -1}, u[:r] + u[r + 1:]))
        base = above + bk - 1 + below - a - t
        for l in range(k + 1, n + 1):
            z, z_star = Letter(l, False), Letter(l, True)
            p, s = bisect_right(u, z, 0, a), bisect_right(u, z_star, t)
            e = base + p + bisect_left(u, z_star, t)
            terms.append(({e: -1, e + 2 * bk: 1}, u[:p] + (z,) + u[p:r]
                          + u[r + 1:s] + (z_star,) + u[s:]))
    return terms


def _fold(nf: Dict[Word, Laurent], letter: Letter,
          ctx: AlgebraContext) -> Dict[Word, Laurent]:
    """The normal form of nf * letter for a normal form nf.  The sphere is
    a quotient of the ball: its product is the ball product, then R5 on
    each word where a_1 b_1 >= 1, with the replacements normalized."""
    acc: Dict[Word, Laurent] = {}
    for u, lp in nf.items():
        for coeff, w in _times_letter(u, letter, ctx.n):
            _laurent_addmul(acc.setdefault(w, {}), lp, coeff)
    for w in [w for w in acc if _r5_applies(w, ctx)]:
        lp = acc.pop(w)
        for c5, r in apply_rule(w, None, ctx.n):
            scaled: Laurent = {}
            _laurent_addmul(scaled, lp, c5)
            for w5, lp5 in _normalize_word(r, ctx).items():
                _laurent_addmul(acc.setdefault(w5, {}), scaled, lp5)
    return {w: lp for w, lp in acc.items() if lp}


def _normalize_word(word: Word, ctx: AlgebraContext,
                    start: int = 0) -> Dict[Word, Laurent]:
    """Normal form of one word over Z[q, q^-1], shared: the letters after
    the longest cached prefix, or after word[:start], which is canonical,
    are folded in by a loop, and each longer prefix's normal form cached."""
    n, mode, i = ctx.n, ctx.mode, len(word)
    while i > start and (nf := _NF_CACHE.get((n, mode, word[:i]))) is None:
        i -= 1
    if i == start:
        nf = {word[:start]: {0: 1}}
    for i in range(i, len(word)):
        nf = _fold(nf, word[i], ctx)
        _NF_CACHE[(n, mode, word[:i + 1])] = nf
    return nf


def pbw_product(ctx: AlgebraContext) -> WordProduct:
    """The product of the quotient on words, u, v -> the terms of NF(uv),
    folded from u: for canonical u and v the PBW product, so mul_lifted of
    two normal states is the normal state of their product."""
    def product(u: Word, v: Word):
        return _normalize_word(u + v, ctx, len(u)).items()
    return product


def _linear(state: State,
            image: Callable[[Word], Dict[Word, Laurent]]) -> State:
    """The sum of coeff * image(word) over the terms of state, over the
    same denominator."""
    out: State = {}
    for word, coeff in state.items():
        for w, lp in image(word).items():
            _addmul(out, w, lp, coeff)
    return out


def _normal_state(state: State, ctx: AlgebraContext) -> State:
    """The normal form of a lifted state, over the same denominator."""
    return _linear(state, lambda word: _normalize_word(word, ctx))


def normalize(p: NCPoly, ctx: AlgebraContext) -> NCPoly:
    """Unique normal form: every word canonical for the given context."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    return NCPoly(ctx.n, _normal_state(p.terms, ctx), p.den)


# -- single-step reduction with pluggable strategy --------------------

LEFTMOST, RIGHTMOST, RANDOM = "leftmost", "rightmost", "random"
STRATEGIES = (LEFTMOST, RIGHTMOST, RANDOM)


def _check_step_args(p: NCPoly, ctx: AlgebraContext, strategy: str,
                     random_source: object, source_name: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == RANDOM and random_source is None:
        raise ValueError(f"random strategy needs {source_name}")
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")


class _Memo:
    """One call's memos: rule_sites by word (sites), apply_rule by
    (word, site) for the stepper (terms) and _reduced's R by word
    (reduced)."""

    __slots__ = ("sites", "terms", "reduced")

    def __init__(self) -> None:
        self.sites: Dict[Word, List[Optional[int]]] = {}
        self.terms: Dict[Tuple[Word, Optional[int]], Expansion] = {}
        self.reduced: Dict[Word, Dict[Word, Laurent]] = {}


def _classify(word: Word, ctx: AlgebraContext,
              memo: _Memo) -> List[Optional[int]]:
    """rule_sites(word, ctx), memoized in memo."""
    found = memo.sites.get(word)
    if found is None:
        found = memo.sites[word] = rule_sites(word, ctx)
    return found


def _expand(word: Word, site: Optional[int], n: int,
            memo: _Memo) -> Expansion:
    """apply_rule(word, site, n), memoized in memo."""
    found = memo.terms.get((word, site))
    if found is None:
        found = memo.terms[word, site] = apply_rule(word, site, n)
    return found


def _split(terms: State, ctx: AlgebraContext,
           memo: _Memo) -> Tuple[State, State]:
    """Copies of the pending words of terms (a rule applies) and of its
    canonical words, whose Laurent maps _step may update in place."""
    pending: State = {}
    canonical: State = {}
    for w, (re, im) in terms.items():
        part = pending if _classify(w, ctx, memo) else canonical
        part[w] = (dict(re), dict(im))
    return pending, canonical


def _order(word: Word) -> Tuple[int, Word]:
    return len(word), word


def _step(pending: State, canonical: State, ctx: AlgebraContext,
          strategy: str, rng: Optional[random.Random], memo: _Memo) -> bool:
    """Apply one rule instance to the state pending + canonical in place;
    False at a fixed point, when pending is empty.  The candidates are the
    pending words in (length, word) order with their rule_sites: leftmost
    takes the first, rightmost the last, and random draws one with
    rng.choice.  A word's class never changes, so each replacement term
    goes to the part its word belongs to.  memo holds the rule_sites and
    apply_rule results."""
    if not pending:
        return False
    sites = memo.sites
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
    for lp, w in _expand(word, site, ctx.n, memo):
        _addmul(pending if _classify(w, ctx, memo) else canonical,
                w, lp, coeff)
    return True


def reduce_step(p: NCPoly, ctx: AlgebraContext, strategy: str = LEFTMOST,
                rng: Optional[random.Random] = None) -> NCPoly:
    """Apply exactly one rule instance to one word; fixed points unchanged."""
    _check_step_args(p, ctx, strategy, rng, "an rng")
    memo = _Memo()
    pending, canonical = _split(p.terms, ctx, memo)
    if not _step(pending, canonical, ctx, strategy, rng, memo):
        return p
    return NCPoly(ctx.n, {**pending, **canonical}, p.den)


_MAX_STEPS = 200000


def _fixed_point(terms: State, ctx: AlgebraContext, strategy: str,
                 seed: Optional[int], max_steps: int, memo: _Memo) -> State:
    """Step a copy of terms until no pending word is left, and return its
    canonical part, with memo holding the run's rule table."""
    rng = random.Random(seed) if strategy == RANDOM else None
    pending, canonical = _split(terms, ctx, memo)
    for _ in range(max_steps + 1):
        if not _step(pending, canonical, ctx, strategy, rng, memo):
            return canonical
    raise RuntimeError(f"no fixed point within {max_steps} steps")


def normalize_by_steps(p: NCPoly, ctx: AlgebraContext,
                       strategy: str = LEFTMOST,
                       seed: Optional[int] = None,
                       max_steps: int = _MAX_STEPS) -> NCPoly:
    """Apply single rule steps until none applies: those of repeated
    reduce_step calls, with one random.Random(seed) for the random strategy,
    on a copy of p's lifted state; RuntimeError after max_steps steps."""
    _check_step_args(p, ctx, strategy, seed, "a seed")
    return NCPoly(ctx.n, _fixed_point(p.terms, ctx, strategy, seed,
                                      max_steps, _Memo()), p.den)


# Five (strategy, seed) runs of the stepper: where confluent is True, each
# of them reaches normalize's result.
CONFLUENCE_RUNS = ((LEFTMOST, None), (RIGHTMOST, None),
                   (RANDOM, 0), (RANDOM, 1), (RANDOM, 2))


def _combine(expansion: Expansion,
             reduced: Dict[Word, Dict[Word, Laurent]]) -> Dict[Word, Laurent]:
    """The sum of lp * R(w) over the terms (lp, w) of expansion, with no
    zero Laurent entry and no empty map."""
    acc: Dict[Word, Laurent] = {}
    for lp, w in expansion:
        for u, c in reduced[w].items():
            _laurent_addmul(acc.setdefault(u, {}), lp, c)
    return {u: c for u, c in acc.items() if c}


def _reduced(terms: State, ctx: AlgebraContext
             ) -> Optional[Dict[Word, Dict[Word, Laurent]]]:
    """R of every word reachable from the words of terms by apply_rule, or
    None if at one of them two rule sites reduce to different results.

    R(w) = w for a canonical w, and otherwise the sum of lp * R(w') over
    the expansion at w's first site; R extends linearly.  The words are
    reduced bottom-up from an explicit stack: a word is classified when it
    is first met (memo.sites), and its expansions at every site are pushed
    with it and kept until it is reduced, once all their words are (R in
    memo.reduced).  So each word is classified, and each (word, site)
    expanded, once; memo.terms, the stepper's memo, stays empty.  A word
    met again while its expansions are still pending lies on a cycle, and
    more than _MAX_STEPS words reached are taken for a rule table that
    does not terminate: either raises the steppers' RuntimeError."""
    memo = _Memo()
    stack: List[Tuple[Word, Optional[List[Expansion]]]] = [
        (w, None) for w in terms]
    while stack:
        word, expansions = stack.pop()
        if expansions is not None:
            first, *others = [_combine(e, memo.reduced) for e in expansions]
            if any(other != first for other in others):
                return None
            memo.reduced[word] = first
        elif word not in memo.reduced:
            # A classified word not yet reduced is one whose expansions
            # are pending, lower on the stack.
            if word in memo.sites or len(memo.sites) >= _MAX_STEPS:
                raise RuntimeError(f"no fixed point within {_MAX_STEPS} "
                                   "steps")
            memo.sites[word] = sites = rule_sites(word, ctx)
            if not sites:
                memo.reduced[word] = {word: {0: 1}}
                continue
            expansions = [apply_rule(word, site, ctx.n) for site in sites]
            stack.append((word, expansions))
            stack.extend((w, None) for expansion in expansions
                         for _, w in expansion if w not in memo.reduced)
    return memo.reduced


def confluent(p: NCPoly, ctx: AlgebraContext) -> bool:
    """Whether every rewrite of p ends at normalize's normal form: every
    site of every word reachable from p's words reduces alike (_reduced),
    and each word w of p reduces to normalize's closed form of w, compared
    exactly as maps of words to Laurent polynomials over Z.  No run is
    stepped and p's coefficients are never read, and each word is
    classified, and each rule instance expanded, at most once per call.

    If True, every run of every strategy reaches normalize's result, and
    so do the five runs of CONFLUENCE_RUNS.  R is linear.  Where every
    site of a word w reduces to R(w), a step at any site of w replaces
    c*w by c times that site's expansion, which leaves R(state)
    unchanged; R is the identity on a fixed point, whose words are
    canonical.  So every run, whatever word and site it takes at each
    step and whatever cancels, ends at R(p), which is normalize's result,
    as R and the normal form are linear and agree on each word of p.
    This holds for any rule table that terminates, even a wrong one.
    False says that two rewrites of some reachable word differ, or that R
    and normalize differ on some word of p, even where those differences
    cancel in p: so the check is stricter than comparing R(p) with
    normalize(p), and False need not mean that a given run goes wrong."""
    if p.n != ctx.n:
        raise ValueError(f"polynomial has n={p.n}, context has n={ctx.n}")
    reduced = _reduced(p.terms, ctx)
    return reduced is not None and all(
        reduced[w] == _normalize_word(w, ctx) for w in p.terms)


# -- misc -------------------------------------------------------------

def canonical_monomials(n: int, max_degree: int,
                        ctx: Optional[AlgebraContext] = None) -> Iterator[Word]:
    """All canonical words of total degree <= max_degree, graded order."""
    sphere = (ctx or AlgebraContext(n)).mode == SPHERE
    for degree in range(max_degree + 1):
        for da in range(degree + 1):
            betas = compositions(degree - da, n)
            for alpha in compositions(da, n):
                yield from (exponents_word(alpha, beta) for beta in betas
                            if not (sphere and alpha[0] * beta[0]))


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
