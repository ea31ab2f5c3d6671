"""The single-step rewriter against a reference stepper over NCPoly/Scalar.

reference_step applies one rule instance with exact Scalar arithmetic and
rebuilds the polynomial, the way the rewriter did before it kept a lifted
integer state.  It is kept here only as an oracle: reduce_step must match it
at every step, with the same random draws, and normalize_by_steps must need
exactly as many rule applications.
"""

import random
from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly, Word
from qball.rewrite import (_adjacent_violations, apply_pair_rule, apply_r5,
                           normalize, normalize_by_steps, r5_applicable,
                           reduce_step)
from qball.scalars import GaussianRational, Scalar

# (strategy, seed) pairs run by confluence-fuzz.
CLI_STRATEGIES = [("leftmost", None), ("rightmost", None),
                  ("random", 0), ("random", 1), ("random", 2)]


def reference_step(p, ctx, strategy, rng):
    """One rule instance applied to one word of p; p itself at a fixed point."""
    candidates = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
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
    coeff = p.terms[word]
    if pos is None:
        expansion = apply_r5(word, ctx.n)
    else:
        expansion = apply_pair_rule(word, pos, ctx.n)
    delta: Dict[Word, Scalar] = {word: -coeff}
    for c, w in expansion:
        term = coeff * Scalar.from_integers(c)
        s = delta.get(w)
        s = term if s is None else s + term
        if s.is_zero():
            delta.pop(w, None)
        else:
            delta[w] = s
    return p + NCPoly(ctx.n, delta)


@st.composite
def gaussian(draw):
    """Nonzero c*q^k whose real and imaginary parts have unrelated denominators."""
    re = Fraction(draw(st.sampled_from([1, -1, 2, -3, 4])),
                  draw(st.sampled_from([1, 2, 4, 5, 6, 9])))
    im = Fraction(draw(st.integers(-3, 3)),
                  draw(st.sampled_from([1, 3, 7, 10])))
    return Scalar({draw(st.integers(-2, 2)): GaussianRational(re, im)})


@st.composite
def cases(draw):
    """(context, polynomial, strategy, seed) with n <= 3, words of length <= 5."""
    n = draw(st.integers(1, 3))
    ctx = AlgebraContext(n, draw(st.sampled_from([BALL, SPHERE])))
    letter = st.builds(Letter, st.integers(1, n), st.booleans())
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(draw(st.lists(letter, max_size=5)))
        p = p + NCPoly.from_word(n, word, draw(gaussian()))
    strategy, seed = draw(st.sampled_from(CLI_STRATEGIES))
    return ctx, p, strategy, seed


def reference_trajectory(p, ctx, strategy, seed):
    """Every polynomial the reference visits, ending at its fixed point."""
    rng = random.Random(seed) if strategy == "random" else None
    path = [p]
    while True:
        nxt = reference_step(path[-1], ctx, strategy, rng)
        if nxt == path[-1]:
            return path
        path.append(nxt)


@settings(max_examples=150)
@given(cases())
def test_reduce_step_follows_reference(case):
    ctx, p, strategy, seed = case
    ref_rng = random.Random(seed) if strategy == "random" else None
    rng = random.Random(seed) if strategy == "random" else None
    current = p
    while True:
        expected = reference_step(current, ctx, strategy, ref_rng)
        got = reduce_step(current, ctx, strategy, rng)
        assert got == expected
        if expected == current:
            break
        current = expected


@settings(max_examples=100)
@given(cases())
def test_step_budget_matches_reference(case):
    ctx, p, strategy, seed = case
    path = reference_trajectory(p, ctx, strategy, seed)
    steps = len(path) - 1
    assert normalize_by_steps(p, ctx, strategy, seed,
                              max_steps=steps) == path[-1] == normalize(p, ctx)
    if steps:
        with pytest.raises(RuntimeError):
            normalize_by_steps(p, ctx, strategy, seed, max_steps=steps - 1)


def test_fixed_point_needs_no_step():
    ctx = AlgebraContext(2, BALL)
    p = NCPoly.from_word(2, (Letter(1, False), Letter(2, True)))
    assert normalize_by_steps(p, ctx, max_steps=0) == p
    assert reduce_step(p, ctx) is p


def test_unknown_strategy_and_missing_seed_rejected():
    ctx = AlgebraContext(1, BALL)
    fixed = NCPoly.from_word(1, (Letter(1, False),))
    with pytest.raises(ValueError, match="unknown strategy"):
        reduce_step(fixed, ctx, "middle")
    with pytest.raises(ValueError, match="unknown strategy"):
        normalize_by_steps(fixed, ctx, "middle", seed=0)
    with pytest.raises(ValueError, match="needs an rng"):
        reduce_step(fixed, ctx, "random")
    with pytest.raises(ValueError, match="needs a seed"):
        normalize_by_steps(fixed, ctx, "random")
