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
    """Each part is one correctly rounded division, whatever the
    denominator, so the value is that of the Fraction coefficients."""
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
