import random
from fractions import Fraction

import pytest

from oracles import fraction_constant, fraction_terms, fraction_value
from qball.algebra import NCPoly
from qball.parsing import ParseError, parse_expression, print_poly
from qball.scalars import DomainError, coefficient_value

ONE_MINUS_Q2 = NCPoly.constant(1, {0: 1, 2: -1})
I = NCPoly.constant(1, {}, {0: 1})


def q(k=1):
    return NCPoly.constant(1, {k: 1})


def value(s, q_val):
    """The value of the constant s at q_val."""
    return coefficient_value(s.terms.get((), ({}, {})), s.den, q_val)


def test_eval_one_minus_q2():
    assert value(ONE_MINUS_Q2, 0.5) == pytest.approx(0.75)


def test_eval_negative_exponent():
    assert value(q(-1), 0.5) == pytest.approx(2.0)


def test_eval_conjugate_of_iq():
    s = (I * q()).adjoint()
    assert value(s, 0.5) == pytest.approx(-0.5j)


def test_eval_domain_error():
    with pytest.raises(DomainError):
        value(q(), 1.0)
    with pytest.raises(DomainError):
        value(q(), -0.1)


def test_eval_refuses_values_that_are_not_finite():
    for s in (q(-2000),                             # q^-2000 overflows
              NCPoly.constant(1, {0: 2 ** 1100}),   # so does 2^1100 / 1
              NCPoly.constant(1, {-100: 2 ** 1000})):   # a product to inf
        with pytest.raises(DomainError, match="not a finite float"):
            value(s, 0.5)


def test_eval_refuses_a_zero_made_by_underflow():
    tiny = NCPoly.constant(1, {0: 1}, den=2 ** 1100)     # 2^-1100 / 1
    for s in (tiny, q(1100), NCPoly.constant(1, {0: 1, 1: -2, 1100: 1})):
        with pytest.raises(DomainError, match="underflows to 0"):
            value(s, 0.5)
    # an exact cancellation is a true 0, and a subnormal is kept
    assert value(NCPoly.constant(1, {0: 1, 1: -2}), 0.5) == 0
    assert value(q(1074), 0.5) == 2.0 ** -1074


def test_eval_rounds_the_exact_sum_once():
    """1 + 2^-53 + 2^-60 - 2q at q = 1/2: rounding the exponent-0 part
    first (to 1 + 2^-52) would give 2^-52, twice the exact value."""
    s = NCPoly.constant(1, {0: 2 ** 60 + 2 ** 7 + 1, 1: -2 ** 61}, den=2 ** 60)
    assert value(s, 0.5) == 2.0 ** -53 + 2.0 ** -60
    # the real part of 1/3 - q/3 at q = 0.3, against the Fraction value
    third = NCPoly.constant(1, {0: 1, 1: -1}, {5: 1}, den=3)
    want = (1 - Fraction(0.3)) / 3
    assert value(third, 0.3).real == float(want)


def test_zero_coefficients_dropped():
    s = q(3) - q(3)
    assert s.is_zero()
    assert s == NCPoly.zero(1)


def test_lowest_terms():
    s = NCPoly.constant(1, {0: 6, 1: -4}, {2: 2}, den=10)
    assert (s.terms, s.den) == ({(): ({0: 3, 1: -2}, {2: 1})}, 5)
    assert s == fraction_constant(1, (0, "3/5", 0), (1, "-2/5", 0),
                                  (2, 0, "1/5"))
    zero = NCPoly.constant(1, {0: 0}, {}, den=7)
    assert (zero.terms, zero.den) == ({}, 1)
    with pytest.raises(ValueError):
        NCPoly.constant(1, {0: 1}, den=0)


def test_conjugation_fixes_exponents():
    s = fraction_constant(1, (2, 1, 3), (-1, 0, -2))
    c = s.adjoint()
    assert c == fraction_constant(1, (2, 1, -3), (-1, 0, 2))
    assert c.adjoint() == s


def _random_scalar(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-3, 3)
        terms[k] = (k,
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return fraction_constant(1, *terms.values())


def test_eval_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        s, t = _random_scalar(rng), _random_scalar(rng)
        q_val = rng.uniform(0.05, 0.95)
        prod = value(s * t, q_val)
        expected = value(s, q_val) * value(t, q_val)
        assert prod == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert value(s + t, q_val) == pytest.approx(
            value(s, q_val) + value(t, q_val), rel=1e-12, abs=1e-12)


def test_eval_matches_fraction_reference_exactly():
    """Each part is its exact sum rounded once, whatever the denominator,
    so the value is that of the Fraction coefficients."""
    rng = random.Random(7)
    for _ in range(500):
        s = _random_scalar(rng) * _random_scalar(rng)
        q_val = rng.uniform(0.05, 0.95)
        coeff = fraction_terms(s).get((), {})
        assert value(s, q_val) == fraction_value(coeff, q_val)


def test_exact_arithmetic_associativity():
    rng = random.Random(6)
    for _ in range(100):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_monomial_inverse():
    s = fraction_constant(1, (-2, Fraction(3, 2), 1))
    assert s * parse_expression(f"({print_poly(s)})^-1", 1) == NCPoly.one(1)
    with pytest.raises(ParseError):
        parse_expression("(1 + q)^-1", 1)


def test_immutable():
    s = NCPoly.one(1)
    with pytest.raises(AttributeError):
        s.terms = {}
