"""Generated-input properties of the rewriter.

Coefficients are c*q^k with real parts over powers of 2 and imaginary parts
over powers of 3, so normalize's common denominator is a true lcm and not
just one of the input denominators.
"""

import copy
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_constant
from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly
from qball.rewrite import (CONFLUENCE_RUNS, confluent, normalize,
                           normalize_by_steps, reduce_step)
from qball.sampling import random_poly

MAX_WORD = 5


@st.composite
def scalars(draw, n):
    re = Fraction(2 * draw(st.integers(-3, 2)) + 1, 2 ** draw(st.integers(0, 3)))
    im = Fraction(3 * draw(st.integers(-2, 1)) + draw(st.sampled_from([1, 2])),
                  3 ** draw(st.integers(0, 2)))
    return fraction_constant(n, (draw(st.integers(-2, 2)), re, im))


def words(n, max_size=MAX_WORD):
    letter = st.builds(Letter, st.integers(1, n), st.booleans())
    return st.lists(letter, max_size=max_size).map(tuple)


@st.composite
def cases(draw, max_terms=3):
    """(context, polynomial) with n <= 3, words of length <= 5."""
    n = draw(st.integers(1, 3))
    ctx = AlgebraContext(n, draw(st.sampled_from([BALL, SPHERE])))
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(1, max_terms))):
        p = p + NCPoly.from_word(n, draw(words(n))) * draw(scalars(n))
    return ctx, p


def _gen(n, j, starred=False):
    return NCPoly.generator(n, j, starred)


def relation(ctx, j):
    """A defining relation of the context that normalizes to 0.

    Ball: z_j* z_j - q^2 z_j z_j* - (1-q^2)(1 - sum_{k>j} z_k z_k*), rule R4
    read as an identity.  Sphere: 1 - sum_k z_k z_k*.
    """
    n = ctx.n
    one = NCPoly.one(n)
    if ctx.mode == SPHERE:
        return one - sum((_gen(n, k) * _gen(n, k, True)
                          for k in range(1, n + 1)), NCPoly.zero(n))
    tail = sum((_gen(n, k) * _gen(n, k, True) for k in range(j + 1, n + 1)),
               NCPoly.zero(n))
    q2 = NCPoly.constant(n, {2: 1})
    return (_gen(n, j, True) * _gen(n, j)
            - q2 * _gen(n, j) * _gen(n, j, True)
            - (one - q2) * (one - tail))


@st.composite
def cancelling_cases(draw):
    """s * u * relation * v, an input whose normal form is exactly 0."""
    ctx, _ = draw(cases(max_terms=1))
    n = ctx.n
    u = NCPoly.from_word(n, draw(words(n, 2)))
    v = NCPoly.from_word(n, draw(words(n, 2)))
    rel = relation(ctx, draw(st.integers(1, n)))
    return ctx, draw(scalars(n)) * u * rel * v


@settings(max_examples=40)
@given(cases())
def test_normalize_agrees_with_leftmost_steps(case):
    ctx, p = case
    assert normalize(p, ctx) == normalize_by_steps(p, ctx, "leftmost")


@settings(max_examples=40)
@given(cases(), st.sampled_from([("leftmost", None), ("rightmost", None),
                                 ("random", 0), ("random", 1), ("random", 2)]))
def test_normalize_agrees_with_every_strategy(case, strategy):
    ctx, p = case
    name, seed = strategy
    assert normalize(p, ctx) == normalize_by_steps(p, ctx, name, seed)


@settings(max_examples=60)
@given(cases())
def test_normalize_idempotent(case):
    ctx, p = case
    nf = normalize(p, ctx)
    assert normalize(nf, ctx) == nf


@settings(max_examples=60)
@given(cases())
def test_normalize_commutes_with_adjoint(case):
    ctx, p = case
    assert (normalize(p.adjoint(), ctx)
            == normalize(normalize(p, ctx).adjoint(), ctx))


@settings(max_examples=60)
@given(st.one_of(cases(), cancelling_cases()), st.data())
def test_normalize_linear(case, data):
    ctx, p = case
    s = data.draw(scalars(ctx.n))
    assert normalize(s * p, ctx) == s * normalize(p, ctx)


@settings(max_examples=30)
@given(cancelling_cases())
def test_relations_cancel_exactly(case):
    ctx, p = case
    assert not p.is_zero()
    assert normalize(p, ctx).is_zero()


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([BALL, SPHERE]))
def test_rewriting_leaves_the_input_unchanged(seed, mode):
    """The steppers update Laurent maps in place, so each works on a copy
    of the input's state."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    p, ctx = random_poly(rng, n), AlgebraContext(n, mode)
    before = copy.deepcopy(p.terms), p.den, hash(p)

    def unchanged():
        return (p.terms, p.den, hash(p)) == before

    normalize(p, ctx)
    assert unchanged()
    for strategy, run_seed in CONFLUENCE_RUNS:
        reduce_step(p, ctx, strategy, random.Random(run_seed))
        assert unchanged()
        normalize_by_steps(p, ctx, strategy, run_seed)
        assert unchanged()
    confluent(p, ctx)
    assert unchanged()
