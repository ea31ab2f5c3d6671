"""Each construction written once: the defining relations as polynomials,
the lattice basis, confluence compared in the rewriter's own ring, and the
Fock representation as an independent check of normal forms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from qball.algebra import BALL, SPHERE, AlgebraContext, NCPoly, compositions
from qball.cli import main
from qball.representations import (
    FockConfig,
    certify_compression,
    fock_generators,
    graded_lex_basis,
    rep_apply,
)
from qball import rewrite
from qball.rewrite import (
    CONFLUENCE_RUNS,
    confluent,
    defining_relations,
    normalize,
    normalize_by_steps,
)
from qball.sampling import random_poly_stream

from test_rewrite_properties import cases

Q = 0.6


@pytest.mark.parametrize("mode", [BALL, SPHERE])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relations_normalize_to_zero(n, mode):
    ctx = AlgebraContext(n, mode)
    relations = defining_relations(ctx)
    # n(n-1)/2 of R1, n(n-1) of R3, n of R4, and the sphere relation
    assert len(relations) == 3 * n * (n - 1) // 2 + n + (mode == SPHERE)
    for relation in relations:
        assert not relation.is_zero()
        assert normalize(relation, ctx).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graded_lex_basis_matches_brute_force(n):
    for N in range(7):
        brute = sorted((m for m in itertools.product(range(N + 1), repeat=n)
                        if sum(m) <= N), key=lambda m: (sum(m), m))
        assert graded_lex_basis(n, N) == brute


def test_compositions_small_cases():
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []
    assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]


@settings(max_examples=60)
@given(cases())
def test_confluent_agrees_with_lowered_comparison(case):
    ctx, p = case
    expected = normalize(p, ctx)
    lowered = all(normalize_by_steps(p, ctx, strategy, seed) == expected
                  for strategy, seed in CONFLUENCE_RUNS)
    assert confluent(p, ctx) == lowered


@pytest.fixture
def restore_nf_cache():
    saved = dict(rewrite._NF_CACHE)
    yield rewrite._NF_CACHE
    rewrite._NF_CACHE.clear()
    rewrite._NF_CACHE.update(saved)


def _poison(cache, p, ctx):
    """Replace the cached normal form of every word of p by twice itself,
    so normalize returns 2 NF(p) while the single steps still give NF(p)."""
    for word in p.terms:
        nf = rewrite._normalize_word(word, ctx)
        cache[(ctx.n, ctx.mode, word)] = {
            w: {k: 2 * c for k, c in lp.items()} for w, lp in nf.items()}


def test_poisoned_normal_form_is_not_confluent(restore_nf_cache):
    ctx = AlgebraContext(2, BALL)
    p = NCPoly.generator(2, 2) * NCPoly.generator(2, 1)
    assert confluent(p, ctx)
    _poison(restore_nf_cache, p, ctx)
    assert not confluent(p, ctx)


def test_poisoned_normal_form_fails_confluence_fuzz(restore_nf_cache, capsys):
    argv = ["confluence-fuzz", "--n", "3", "--mode", SPHERE, "--seed", "5",
            "--count", "1"]
    assert main(argv) == 0
    [(pn, p)] = random_poly_stream(5, 1, n_max=3)
    ctx = AlgebraContext(pn, SPHERE)
    assert not normalize(p, ctx).is_zero()
    _poison(restore_nf_cache, p, ctx)
    assert main(argv) == 4
    assert "1 strategy disagreements" in capsys.readouterr().out


@settings(max_examples=40)
@given(cases())
def test_normal_form_acts_as_the_input_on_certified_fock_block(case):
    ctx, p = case
    ctx = AlgebraContext(ctx.n, BALL)
    degree = p.degree()
    rep = fock_generators(FockConfig(ctx.n, degree + 2, Q))
    indices = certify_compression(rep, degree)
    before = rep_apply(p, rep, Q, indices)
    after = rep_apply(normalize(p, ctx), rep, Q, indices)
    scale = max(1.0, float(np.abs(before).max(initial=0.0)))
    assert np.allclose(after, before, rtol=0, atol=1e-9 * scale)
