import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qball.algebra import (
    BALL,
    SPHERE,
    AlgebraContext,
    Letter,
    NCPoly,
    is_holomorphic,
)
from qball import rewrite
from qball.parsing import parse_expression
from qball.rewrite import (
    _NF_CACHE,
    apply_rule,
    canonical_monomials,
    confluent,
    is_canonical_word,
    normalize,
    normalize_by_steps,
    reduce_step,
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
    for _ in range(40):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, mode)
        p = random_poly(rng, n)
        expected = normalize(p, ctx)
        for strategy, seed in rewrite.CONFLUENCE_RUNS:
            assert normalize_by_steps(p, ctx, strategy, seed) == expected



@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_confluent_classifies_each_word_once(mode, monkeypatch):
    # One memo of rule_sites serves the whole reduction.
    calls = Counter()
    real = rewrite.rule_sites

    def counting(word, ctx):
        calls[word] += 1
        return real(word, ctx)

    monkeypatch.setattr(rewrite, "rule_sites", counting)
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randint(1, 3)
        calls.clear()
        assert confluent(random_poly(rng, n), AlgebraContext(n, mode))
        assert max(calls.values(), default=1) == 1


_ONE_AND_TWO_SITES = ["z2'*z1", "z2*z1 + z1'*z1", "z2'*z2*z1",
                      "z1'*z1*z1*z2"]


@pytest.mark.parametrize("mode", [BALL, SPHERE])
@pytest.mark.parametrize("text", _ONE_AND_TWO_SITES)
def test_confluent_steps_no_run(mode, text, monkeypatch):
    # Every word that z2'*z1 or z2*z1 + z1'*z1 reaches has one rule site.
    # z2'*z2*z1 has two sites, and z1'*z1*z1*z2 has one, but a word it
    # reaches has two.  confluent reduces each of them without a step.
    def refuse(*args):
        raise AssertionError("confluent stepped a run")

    monkeypatch.setattr(rewrite, "_fixed_point", refuse)
    monkeypatch.setattr(rewrite, "_step", refuse)
    assert confluent(parse_expression(text, 2), AlgebraContext(2, mode))


@pytest.mark.parametrize("mode", [BALL, SPHERE])
@pytest.mark.parametrize("text", _ONE_AND_TWO_SITES)
def test_confluent_multiplies_no_coefficient(mode, text, monkeypatch):
    # confluent compares R and the normal form word by word, as maps to
    # Laurent polynomials over Z, so it never builds a state of Gaussian
    # coefficients.
    def refuse(*args):
        raise AssertionError("confluent built a coefficient state")

    for name in ("_linear", "_normal_state", "_addmul"):
        monkeypatch.setattr(rewrite, name, refuse)
    assert confluent(parse_expression(text, 2), AlgebraContext(2, mode))


def _wrong_r1(word, site, n):
    """The rule table with q where R1 has q^-1."""
    out = apply_rule(word, site, n)
    if site is not None and not (word[site].starred
                                 or word[site + 1].starred):
        return [({1: 1}, w) for _, w in out]
    return out


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_confluent_catches_a_wrong_rule(mode, monkeypatch):
    # R1 with q where it should have q^-1 leaves two ambiguities at n = 2
    # unresolved; z2'*z2*z1 meets one of them.
    p = parse_expression("z2'*z2*z1", 2)
    ctx = AlgebraContext(2, mode)
    assert confluent(p, ctx)
    monkeypatch.setattr(rewrite, "apply_rule", _wrong_r1)
    monkeypatch.setattr(rewrite, "_NF_CACHE", {})
    assert not confluent(p, ctx)


def _wrong_at_last_site(least):
    """The rule table with an extra factor q at the last pair site of a
    word with least or more pair sites."""
    def rule(word, site, n):
        out = apply_rule(word, site, n)
        sites = [i for i in range(len(word) - 1)
                 if rewrite._violates(word[i], word[i + 1])]
        if len(sites) >= least and site == sites[-1]:
            return [({k + 1: c for k, c in lp.items()}, w) for lp, w in out]
        return out
    return rule


@pytest.mark.parametrize("mode", [BALL, SPHERE])
@pytest.mark.parametrize("text, least", [("z2'*z2*z1", 2),
                                         ("z1'*z1*z1*z2", 2),
                                         ("z2'*z1'*z2*z1", 3)])
def test_confluent_compares_every_site(mode, text, least, monkeypatch):
    # z2'*z2*z1 has two rule sites, and z1'*z1*z1*z2 one, but it reaches
    # z1*z1'*z1*z2 with two.  z2'*z1'*z2*z1 has three, and no word it
    # reaches has more than two.  A table wrong only at the last site of
    # such a word must be caught, though every first site is right.
    p, ctx = parse_expression(text, 2), AlgebraContext(2, mode)
    assert confluent(p, ctx)
    monkeypatch.setattr(rewrite, "apply_rule", _wrong_at_last_site(least))
    assert not confluent(p, ctx)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([BALL, SPHERE]))
def test_every_run_reaches_r_where_every_site_agrees_even_under_a_wrong_rule(
        seed, mode):
    # confluent's argument needs only that the rules terminate: where every
    # site of every reachable word reduces alike, each of the five runs
    # ends at R(p), even with the wrong R1, under which some inputs' sites
    # differ.
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    p, ctx = random_poly(rng, n), AlgebraContext(n, mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "apply_rule", _wrong_r1)
        reduced = rewrite._reduced(p.terms, ctx)
        if reduced is not None:
            reached = rewrite._linear(p.terms, reduced.__getitem__)
            for strategy, run_seed in rewrite.CONFLUENCE_RUNS:
                assert normalize_by_steps(p, ctx, strategy, run_seed) == \
                    NCPoly(n, reached, p.den)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([BALL, SPHERE]),
       st.sampled_from([_wrong_r1, _wrong_at_last_site(2)]))
def test_confluent_implies_r_of_the_input_is_its_normal_form(seed, mode,
                                                              rule):
    # confluent compares R with the normal form word by word.  By
    # linearity that verdict is never weaker than comparing R(p) with
    # normalize's state for p, which it replaces; under a wrong rule table
    # some inputs fail either comparison.
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    p, ctx = random_poly(rng, n), AlgebraContext(n, mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "apply_rule", rule)
        if confluent(p, ctx):
            reduced = rewrite._reduced(p.terms, ctx)
            assert rewrite._linear(p.terms, reduced.__getitem__) == \
                rewrite._normal_state(p.terms, ctx)


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_confluent_expands_each_rule_instance_once(mode, monkeypatch):
    # One memo of apply_rule serves the whole reduction.  normalize's own
    # R5 expansions are cached beforehand, so every call counted comes
    # from the reduction.
    calls = Counter()
    real = rewrite.apply_rule

    def counting(word, site, n):
        calls[word, site] += 1
        return real(word, site, n)

    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 3)
        p, ctx = random_poly(rng, n), AlgebraContext(n, mode)
        normalize(p, ctx)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(rewrite, "apply_rule", counting)
            assert confluent(p, ctx)
        assert max(calls.values(), default=1) == 1


def test_confluent_stops_on_a_rule_table_that_does_not_terminate(
        monkeypatch):
    # Each rewrite of z2*z1*...*z1 appends a z1, so every word reached has
    # one rule site and there is no end to them: the reduction gives up
    # after _MAX_STEPS words.
    def lengthen(word, site, n):
        return [({0: 1}, word + (Letter(1, False),))]

    monkeypatch.setattr(rewrite, "apply_rule", lengthen)
    monkeypatch.setattr(rewrite, "_MAX_STEPS", 50)
    with pytest.raises(RuntimeError, match="no fixed point within 50"):
        confluent(word_poly(2, (2, False), (1, False)), BALL2)


def test_confluent_stops_on_a_rule_table_with_a_cycle(monkeypatch):
    # z2*z1 rewrites to itself, so no run ever reaches a fixed point,
    # though no new word is reached.
    monkeypatch.setattr(rewrite, "apply_rule",
                        lambda word, site, n: [({0: 1}, word)])
    p = word_poly(2, (2, False), (1, False))
    with pytest.raises(RuntimeError, match="no fixed point within"):
        normalize_by_steps(p, BALL2, max_steps=50)
    with pytest.raises(RuntimeError, match="no fixed point within"):
        confluent(p, BALL2)


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
    alpha1, beta1 = word.count(Letter(1, False)), word.count(Letter(1, True))
    assert alpha1 == 2 and beta1 == 1
    for _, replacement in apply_rule(word, None, 2):
        unstar1 = sum(1 for l in replacement if l.index == 1 and not l.starred)
        star1 = sum(1 for l in replacement if l.index == 1 and l.starred)
        assert unstar1 == alpha1 - 1
        assert star1 == beta1 - 1


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
            assert word.count(Letter(1, False)) * \
                word.count(Letter(1, True)) == 0
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
    # The cache holds one normal form per folded prefix: the 3 + 9 + ... +
    # 3^7 = 3 279 prefixes of the free expansion's words in ball mode, and
    # in sphere mode 285 more from normalizing R5 replacements.
    p = parse_expression("(z1'+z2'+z3')^3*(z1+z2+z3)^4", 3)
    _NF_CACHE.clear()
    normalize(p, AlgebraContext(3, mode))
    assert len(_NF_CACHE) <= {BALL: 3279, SPHERE: 3564}[mode]
