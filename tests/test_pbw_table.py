"""The PBW product table on its own: a canonical word times a letter, as
rewrite._fold gives it in closed form, against the single rule steps and,
in ball mode, against the certified Fock block."""

import pytest

from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly
from qball.representations import (FockConfig, certify_compression,
                                   fock_generators, rep_apply)
from qball.rewrite import (_fold, _times_letter, canonical_monomials,
                           normalize_by_steps)

Q = 0.5


def _letters(n):
    return [Letter(j, s) for j in range(1, n + 1) for s in (False, True)]


def _poly(n, terms):
    return NCPoly(n, {w: (lp, {}) for w, lp in terms.items()})


@pytest.mark.parametrize("mode", [BALL, SPHERE])
@pytest.mark.parametrize("n, degree", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_product_by_a_letter_is_the_rewritten_product(n, degree, mode):
    """Every canonical word of degree <= degree times every letter: the
    fold's normal form equals the fixed point of the leftmost single rule
    steps exactly."""
    ctx = AlgebraContext(n, mode)
    for u in canonical_monomials(n, degree, ctx):
        for letter in _letters(n):
            expected = normalize_by_steps(
                NCPoly.from_word(n, u + (letter,)), ctx)
            assert _poly(n, _fold({u: {0: 1}}, letter, ctx)) == expected, (
                u, letter)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_ball_term_holds_on_the_fock_block(n):
    """u * letter equals the sum of _times_letter's terms as operators on
    the certified Fock block, for canonical u of degree <= 3."""
    rep = fock_generators(FockConfig(n, 8, Q))
    idx = certify_compression(rep, 4)
    for u in canonical_monomials(n, 3):
        for letter in _letters(n):
            word = u + (letter,)
            lhs = rep_apply(NCPoly.from_word(n, word), rep, Q, idx)
            rhs = sum(rep_apply(_poly(n, {w: lp}), rep, Q, idx)
                      for lp, w in _times_letter(u, letter, n))
            assert abs(lhs - rhs).max() < 1e-12, word
