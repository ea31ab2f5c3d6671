"""The printer reads Gaussian-integer numerators over one denominator; the
Fraction printer in oracles is its reference, byte for byte."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_poly, fraction_print_poly
from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly
from qball.parsing import parse_expression, print_poly, print_state
from qball.rewrite import normalize, normalize_lifted

# 0, +-1 and fractions over unlike denominators.
parts = st.one_of(st.sampled_from([0, 1, -1]),
                  st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


@st.composite
def scalars(draw):
    """Up to three q-terms, negative exponents included."""
    exponents = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                              unique=True))
    coeff = {k: (Fraction(draw(parts)), Fraction(draw(parts)))
             for k in exponents}
    return {k: c for k, c in coeff.items() if c[0] or c[1]}


@st.composite
def polys(draw, n):
    """Up to four terms; the empty word and the zero polynomial included."""
    letter = st.builds(Letter, st.integers(1, n), st.booleans())
    terms = draw(st.dictionaries(st.lists(letter, max_size=4).map(tuple),
                                 scalars(), max_size=4))
    return fraction_poly(n, terms)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    return n, draw(polys(n))


def _scalar(*terms):
    """A reference coefficient from (exponent, re, im) triples."""
    return {k: (Fraction(re), Fraction(im)) for k, re, im in terms}


_Z1 = (Letter(1, False),)


@settings(max_examples=200)
@given(cases())
@example((2, NCPoly.zero(2)))
@example((2, NCPoly.one(2)))
@example((1, fraction_poly(1, {(): _scalar((0, -1, 0)),
                               _Z1: _scalar((0, 0, -1))})))
@example((1, fraction_poly(1, {_Z1: _scalar((-2, "1/2", "-1/3"),
                                            (1, "-3/4", 0), (3, 0, "5/6"))})))
@example((1, fraction_poly(1, {_Z1: _scalar((-1, "2/4", "-1")),
                               _Z1 * 2: _scalar((0, "-7/3", "1"))})))
def test_print_poly_matches_fraction_printer_and_parses_back(case):
    n, p = case
    text = print_poly(p)
    assert text == fraction_print_poly(p)
    assert parse_expression(text, n) == p


@settings(max_examples=60)
@given(cases(), st.sampled_from([BALL, SPHERE]))
def test_printed_normal_state_matches_printed_normal_form(case, mode):
    n, p = case
    ctx = AlgebraContext(n, mode)
    assert print_state(*normalize_lifted(p, ctx)) == \
        fraction_print_poly(normalize(p, ctx))


laurents = st.dictionaries(st.integers(-3, 3),
                           st.integers(-40, 40).filter(bool), max_size=3)


@st.composite
def states(draw):
    """A lifted state over a denominator that need not be the least one."""
    n = draw(st.integers(1, 3))
    letter = st.builds(Letter, st.integers(1, n), st.booleans())
    coeffs = st.tuples(laurents, laurents).filter(lambda c: c[0] or c[1])
    state = draw(st.dictionaries(st.lists(letter, max_size=3).map(tuple),
                                 coeffs, max_size=4))
    return state, draw(st.integers(1, 60))


@settings(max_examples=100)
@given(states(), st.integers(2, 50))
def test_print_state_does_not_depend_on_the_denominator(lifted, k):
    """The parser multiplies denominators without reducing them, so the
    text must be that of any common denominator."""
    state, den = lifted
    scaled = {w: ({e: k * c for e, c in re.items()},
                  {e: k * c for e, c in im.items()})
              for w, (re, im) in state.items()}
    assert print_state(scaled, k * den) == print_state(state, den)
