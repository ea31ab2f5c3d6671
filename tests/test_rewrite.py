import random

import pytest

from qball.algebra import (
    BALL,
    SPHERE,
    AlgebraContext,
    Letter,
    NCPoly,
    is_holomorphic,
)
from qball.parsing import parse_expression
from qball.rewrite import (
    _NF_CACHE,
    apply_r5,
    canonical_monomials,
    is_canonical_word,
    normalize,
    normalize_by_steps,
    reduce_step,
    word_exponents,
)
from qball.sampling import random_poly

BALL1 = AlgebraContext(1, BALL)
BALL2 = AlgebraContext(2, BALL)
SPHERE1 = AlgebraContext(1, SPHERE)
SPHERE2 = AlgebraContext(2, SPHERE)


def word_poly(n, *letters):
    return NCPoly.from_word(n, tuple(Letter(j, s) for j, s in letters))


def test_reduce_step_r3():
    p = word_poly(2, (1, True), (2, False))
    out = reduce_step(p, BALL2)
    expected = (NCPoly.constant(2, {1: 1})
                * word_poly(2, (2, False), (1, True)))
    assert out == expected


def test_reduce_step_r1():
    p = word_poly(2, (2, False), (1, False))
    out = reduce_step(p, BALL2)
    expected = (NCPoly.constant(2, {-1: 1})
                * word_poly(2, (1, False), (2, False)))
    assert out == expected


def test_reduce_step_fixed_point():
    p = word_poly(2, (1, False), (2, False), (1, True))
    assert reduce_step(p, BALL2) == p


def test_normalize_r4_n1():
    p = parse_expression("z1'*z1", 1)
    expected = parse_expression("q^2*z1*z1' + (1-q^2)", 1)
    assert normalize(p, BALL1) == expected


def test_normalize_golden_n1():
    p = parse_expression("z1'*z1*z1'*z1", 1)
    expected = parse_expression(
        "q^6*z1^2*z1'^2 + (q^4+2*q^2)*(1-q^2)*z1*z1' + (1-q^2)^2", 1)
    assert normalize(p, BALL1) == expected


def test_normalize_sphere_n1_pair():
    assert normalize(parse_expression("z1*z1'", 1), SPHERE1) == NCPoly.one(1)
    assert normalize(parse_expression("z1'*z1", 1), SPHERE1) == NCPoly.one(1)


def test_sphere_relation_vanishes_n2():
    p = parse_expression("1 - z1*z1' - z2*z2'", 2)
    assert normalize(p, SPHERE2).is_zero()


def test_is_holomorphic():
    assert is_holomorphic(parse_expression("z1*z2 + q*z2^2", 2))
    assert not is_holomorphic(parse_expression("z1'", 1))
    assert is_holomorphic(NCPoly.one(2))


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_confluence_strategies(mode):
    rng = random.Random(13)
    strategies = [("leftmost", None), ("rightmost", None),
                  ("random", 0), ("random", 1), ("random", 2)]
    for _ in range(40):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, mode)
        p = random_poly(rng, n)
        expected = normalize(p, ctx)
        for strategy, seed in strategies:
            assert normalize_by_steps(p, ctx, strategy, seed) == expected


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_star_compatibility(mode):
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, mode)
        p = random_poly(rng, n)
        lhs = normalize(p.adjoint(), ctx)
        rhs = normalize(normalize(p, ctx).adjoint(), ctx)
        assert lhs == rhs


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_idempotence(mode):
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, mode)
        nf = normalize(random_poly(rng, n), ctx)
        assert normalize(nf, ctx) == nf


def _charges(word, n):
    out = [0] * n
    for letter in word:
        out[letter.index - 1] += -1 if letter.starred else 1
    return tuple(out)


def test_charge_conservation_on_traces():
    # per-index (#unstarred - #starred) is preserved by every rule
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(1, 3)
        mode = rng.choice([BALL, SPHERE])
        ctx = AlgebraContext(n, mode)
        p = random_poly(rng, n)
        allowed = {_charges(w, n) for w in p.terms}
        current = p
        for _ in range(500):
            nxt = reduce_step(current, ctx, "random",
                              rng=random.Random(rng.randint(0, 10**6)))
            if nxt == current:
                break
            assert {_charges(w, n) for w in nxt.terms} <= allowed
            current = nxt


def test_r5_removes_one_pair_per_index_one():
    word = tuple(parse_expression("z1^2*z2*z1'*z2'", 2).terms)[0]
    alpha, beta = word_exponents(word, 2)
    assert alpha[0] == 2 and beta[0] == 1
    for _, replacement in apply_r5(word, 2):
        unstar1 = sum(1 for l in replacement if l.index == 1 and not l.starred)
        star1 = sum(1 for l in replacement if l.index == 1 and l.starred)
        assert unstar1 == alpha[0] - 1
        assert star1 == beta[0] - 1


def test_holomorphic_closure():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, star_free=True)
        assert is_holomorphic(normalize(p, AlgebraContext(n, BALL)))


def test_sphere_normal_form_constraint():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, SPHERE)
        nf = normalize(random_poly(rng, n), ctx)
        for word in nf.terms:
            alpha, beta = word_exponents(word, n)
            assert alpha[0] * beta[0] == 0
            assert is_canonical_word(word, ctx)


def test_canonical_monomials_count():
    # n=2, degree <= 3: multiindices (alpha, beta) in Z_+^4 of weight <= 3
    words = list(canonical_monomials(2, 3))
    assert len(words) == 35
    assert len(set(words)) == 35
    ball = AlgebraContext(2, BALL)
    assert all(is_canonical_word(w, ball) for w in words)


def test_word_cache_holds_integer_laurent_polynomials():
    # Gaussian coefficients with unlike denominators meet the cached word
    # normal forms only in normalize's final pass.
    p = parse_expression("(1/2+1/3*i)*z2'*z1*z1'*z2 - (3/4-5/9*i)*q^-1*z1'*z1", 2)
    for ctx in (BALL2, SPHERE2):
        _NF_CACHE.clear()
        normalize(p, ctx)
        assert _NF_CACHE
        for nf in _NF_CACHE.values():
            for laurent in nf.values():
                assert laurent
                assert all(type(c) is int for c in laurent.values())


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_word_cache_is_filled_prefix_first(mode):
    # Prefix first, the cache holds prefix normal forms and canonical word *
    # letter products: 6 288 (ball) and 5 481 (sphere) entries here, where
    # rewriting the leftmost violation caches 12 486 and 12 790 words.
    p = parse_expression("(z1'+z2'+z3')^3*(z1+z2+z3)^4", 3)
    _NF_CACHE.clear()
    normalize(p, AlgebraContext(3, mode))
    assert len(_NF_CACHE) <= 6500
