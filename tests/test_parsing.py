import random

import pytest

from qball import cli
from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, NCPoly
from qball.norms import MatPoly
from qball.parsing import (
    ParseError,
    parse_expression,
    print_matrix,
    print_poly,
)
from qball.rewrite import normalize
from qball.sampling import random_poly

ONE = ({0: 1}, {})


def test_parse_starred_word():
    p = parse_expression("z1'*z2", 2)
    assert p.terms == {(Letter(1, True), Letter(2, False)): ONE}


def test_parse_scalar_combination():
    p = parse_expression("q^2*z1 - (1-q^2)", 1)
    expected = (NCPoly.constant(1, {2: 1}) * NCPoly.generator(1, 1)
                - NCPoly.constant(1, {0: 1, 2: -1}))
    assert p == expected


def test_parse_index_out_of_range():
    with pytest.raises(ParseError):
        parse_expression("z3", 2)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + + z2", 2)
    assert "position" in str(err.value)


def test_parse_negative_generator_power_rejected():
    with pytest.raises(ParseError):
        parse_expression("z1^-2", 1)


def test_parse_q_negative_power():
    p = parse_expression("q^-3", 1)
    assert p == NCPoly.constant(1, {-3: 1})


def test_parse_rational_and_imaginary():
    p = parse_expression("3/4*i*z1", 1)
    assert p == NCPoly.constant(1, {}, {0: 3}, 4) * NCPoly.generator(1, 1)


def test_parse_powers_and_primes():
    p = parse_expression("z1'^2", 1)
    assert p == NCPoly.from_word(1, (Letter(1, True), Letter(1, True)))


def test_parse_matrix():
    F = parse_expression("[z1, z2; 0, z1]", 2)
    assert isinstance(F, MatPoly)
    assert F.shape == (2, 2)
    assert F.entries[1][0].is_zero()


def test_parse_matrix_ragged_rows():
    with pytest.raises(ParseError):
        parse_expression("[z1, z2; z1]", 2)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("z1 )", 1)


@pytest.mark.parametrize("text, n, position", [
    ("z1^\u00b2", 1, 3),     # superscript two as an exponent
    ("z\u0663", 3, 0),       # Arabic-Indic three as a generator index
])
def test_parse_accepts_ascii_digits_only(text, n, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, n)
    assert err.value.position == position


def test_print_simple():
    ctx = AlgebraContext(1, BALL)
    nf = normalize(parse_expression("z1'*z1", 1), ctx)
    assert print_poly(nf) == "(1 - q^2) + q^2*z1*z1'"


def test_print_zero_and_one():
    assert print_poly(NCPoly.zero(2)) == "0"
    assert print_poly(NCPoly.one(2)) == "1"


def test_print_matrix_roundtrip():
    F = parse_expression("[z1, z2; 0, q*z1]", 2)
    again = parse_expression(print_matrix(F), 2)
    assert again.entries == F.entries


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_roundtrip_on_normal_forms(mode):
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 3)
        ctx = AlgebraContext(n, mode)
        nf = normalize(random_poly(rng, n), ctx)
        assert parse_expression(print_poly(nf), n) == nf


def test_roundtrip_complex_coefficients():
    p = NCPoly.constant(2, {0: -3}, {0: 4}, 6) * NCPoly.generator(2, 1)
    p = p + NCPoly.constant(2, {}, {-2: 1})
    assert parse_expression(print_poly(p), 2) == p


_SCALAR_ONLY = "negative powers are only allowed for scalar factors"


@pytest.mark.parametrize("text, message, position", [
    ("0^-1", "zero has no inverse", 0),
    ("z1 + (q - q)^-2", "zero has no inverse", 5),
    ("z1^-1", _SCALAR_ONLY, 0),
    ("(q+1)^-1", _SCALAR_ONLY, 0),
    # 1 in the quotient, but not a scalar in the free algebra
    ("2*(z1'*z1 - q^2*z1*z1' + q^2)^-1", _SCALAR_ONLY, 2),
])
@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_negative_power_errors(capsys, text, message, position, mode):
    with pytest.raises(ParseError) as err:
        parse_expression(text, 1)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position
    assert cli.main(["normal-form", "--n", "1", "--mode", mode,
                     "--expr", text]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_negative_powers_of_scalars():
    assert parse_expression("(2*i*q^3)^-2 - 0^0 + z1^-0", 1) == \
        NCPoly.constant(1, {-6: -1}, {}, 4)
