"""The single-step rewriter against a reference stepper over Fractions.

oracles.reference_step applies one rule instance with exact Fraction
arithmetic and rebuilds the polynomial.  reduce_step must match it at every
step, with the same random draws, and normalize_by_steps must need exactly
as many rule applications.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_constant, reference_step
from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly
from qball.rewrite import normalize, normalize_by_steps, reduce_step

# (strategy, seed) pairs run by confluence-fuzz.
CLI_STRATEGIES = [("leftmost", None), ("rightmost", None),
                  ("random", 0), ("random", 1), ("random", 2)]


@st.composite
def gaussian(draw, n):
    """Nonzero c*q^k whose real and imaginary parts have unrelated denominators."""
    re = Fraction(draw(st.sampled_from([1, -1, 2, -3, 4])),
                  draw(st.sampled_from([1, 2, 4, 5, 6, 9])))
    im = Fraction(draw(st.integers(-3, 3)),
                  draw(st.sampled_from([1, 3, 7, 10])))
    return fraction_constant(n, (draw(st.integers(-2, 2)), re, im))


@st.composite
def cases(draw):
    """(context, polynomial, strategy, seed) with n <= 3, words of length <= 5."""
    n = draw(st.integers(1, 3))
    ctx = AlgebraContext(n, draw(st.sampled_from([BALL, SPHERE])))
    letter = st.builds(Letter, st.integers(1, n), st.booleans())
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(draw(st.lists(letter, max_size=5)))
        p = p + NCPoly.from_word(n, word) * draw(gaussian(n))
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
