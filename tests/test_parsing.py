import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qball import cli, parsing
from qball.algebra import (BALL, SPHERE, AlgebraContext, ContextError, Letter,
                           NCPoly, free_product)
from qball.norms import MatPoly
from qball.parsing import (
    ParseError,
    _tokenize,
    parse_expression,
    parse_lifted,
    print_matrix,
    print_poly,
)
from qball.rewrite import normalize, pbw_product
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
    for parse in (parse_expression, parse_lifted):
        with pytest.raises(ContextError) as err:
            parse("1", 0)
        assert str(err.value) == "need n >= 1, got 0"


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + + z2", 2)
    assert "position" in str(err.value)
    for text, message in [("1/0", "zero denominator (at position 2)"),
                          ("[z1, z1",
                           "expected ']', found 'end' (at position 7)")]:
        with pytest.raises(ParseError) as err:
            parse_expression(text, 1)
        assert str(err.value) == message


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


def lexed(text):
    """The (kind, value, position) of each token of text before 'end', or
    the error's message and position."""
    try:
        return [(t.kind, t.value, t.pos) for t in _tokenize(text)[:-1]]
    except ParseError as err:
        return str(err).rsplit(" (at", 1)[0], err.position


def one_token(c, pos):
    """What the grammar makes of the character c alone at pos: no token,
    one token, or an error."""
    if c.isspace():
        return []
    if c in "0123456789":
        return [("num", int(c), pos)]
    if c in "+-*^/()[],;qi":
        return [(c, c, pos)]
    if c == "z":
        return "generator needs an index, e.g. z1", pos
    return f"unexpected character {c!r}", pos


@given(st.characters())
@example("\u00a0")     # no-break space
@example("\u0085")     # next line
@example("\u001c")     # file separator
@example("\u2028")     # line separator
@example("\u00b2")     # superscript two: a digit to str.isdigit
@example("\u0663")     # Arabic-Indic three: a digit to the \d of re
def test_every_character_tokenizes_as_the_grammar_says(c):
    alone = one_token(c, 0)
    assert lexed(c) == alone
    if c in "0123456789":
        assert lexed("z" + c) == [("z", (int(c), False), 0)]
        assert lexed("1" + c) == [("num", int("1" + c), 0)]
        return
    assert lexed("z" + c) == ("generator needs an index, e.g. z1", 0)
    after = one_token(c, 1)
    assert lexed("1" + c) == ([("num", 1, 0)] + after
                              if isinstance(after, list) else after)


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


scalar_terms = st.tuples(st.integers(-3, 3), st.integers(1, 3),
                         st.integers(-3, 3), st.booleans())


@given(st.lists(scalar_terms, min_size=1, max_size=3), st.integers(0, 40),
       st.sampled_from([BALL, SPHERE]))
def test_scalar_power_equals_repeated_product(terms, e, mode):
    # Scalar powers are taken by squaring, and must equal the product of
    # e copies exactly, denominator included, in both word products.
    s = " + ".join(f"({num}/{den}{'*i' if imag else ''})*q^{k}"
                   for num, den, k, imag in terms)
    copies = "*".join([f"({s})"] * e) or "1"
    for product in (free_product, pbw_product(AlgebraContext(2, mode))):
        assert (parse_lifted(f"({s})^{e}", 2, product)
                == parse_lifted(copies, 2, product))


def test_scalar_power_makes_logarithmically_many_products(monkeypatch):
    calls = []
    real = parsing.mul_lifted

    def counting(a, b, product):
        calls.append(1)
        return real(a, b, product)

    monkeypatch.setattr(parsing, "mul_lifted", counting)
    assert parse_expression("q^-179700", 2) == \
        NCPoly.constant(2, {-179700: 1})
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(179700))
