"""normal-form evaluates its input in the quotient: every product of normal
states goes through the PBW word product.  Its text must be that of the
free expansion, normalized."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qball import cli, rewrite
from qball.algebra import BALL, SPHERE, AlgebraContext, MatPoly, NCPoly
from qball.parsing import parse_expression, print_matrix, print_state
from qball.rewrite import normalize, normalize_lifted

# Bounds on the free expansion of a drawn expression: its number of words
# and its degree, so the free path stays quick.
_MAX_WORDS = 300
_MAX_DEGREE = 8


@st.composite
def _monomials(draw):
    """Text of a nonzero scalar c * q^k: rationals, i and q^+-k."""
    re = draw(st.integers(-4, 4))
    im = draw(st.integers(-3, 3).filter(lambda b: re or b))
    den = draw(st.integers(1, 5))
    if re and im:
        text = f"({re}/{den} {'+' if im > 0 else '-'} {abs(im)}*i)"
    elif re:
        text = f"{re}/{den}" if den > 1 else f"{re}"
    else:
        text = "i" if im == 1 else f"{im}*i"
    k = draw(st.integers(-3, 3))
    if k:
        text += f"*q^{k}"
    return text


@st.composite
def _atoms(draw, n):
    """(text, words, degree) of an atom or a negative power of a scalar."""
    kind = draw(st.sampled_from(["z", "q", "i", "rational", "inverse"]))
    if kind == "z":
        index = draw(st.integers(1, n))
        return f"z{index}" + ("'" if draw(st.booleans()) else ""), 1, 1
    if kind == "q":
        k = draw(st.integers(-3, 3))
        return ("q" if k == 1 else f"q^{k}"), 1, 0
    if kind == "i":
        return "i", 1, 0
    if kind == "rational":
        num, den = draw(st.integers(0, 9)), draw(st.integers(1, 6))
        return (f"{num}/{den}" if den > 1 else f"{num}"), 1, 0
    return f"({draw(_monomials())})^-{draw(st.integers(0, 3))}", 1, 0


@st.composite
def _exprs(draw, n, depth):
    """(text, words, degree): signed sums of products of factors, where a
    factor is an atom or a parenthesized expression to a power <= 4."""
    parts, words, degree = [], 0, 0
    for t in range(draw(st.integers(1, 3))):
        factors, t_words, t_degree = [], 1, 0
        for _ in range(draw(st.integers(1, 3))):
            if depth and draw(st.booleans()):
                text, w, d = draw(_exprs(n, depth - 1))
                e = draw(st.integers(0, 4))
                while e and (w ** e > _MAX_WORDS or d * e > _MAX_DEGREE):
                    e -= 1
                text, w, d = f"({text})^{e}", w ** e, d * e
            else:
                text, w, d = draw(_atoms(n))
            if t_words * w > _MAX_WORDS or t_degree + d > _MAX_DEGREE:
                break
            factors.append(text)
            t_words, t_degree = t_words * w, t_degree + d
        if not factors or words + t_words > _MAX_WORDS:
            break
        sign = draw(st.sampled_from(["+", "-"]))
        if t == 0:
            parts.append(("-" if sign == "-" else "") + "*".join(factors))
        else:
            parts.append(f" {sign} " + "*".join(factors))
        words, degree = words + t_words, max(degree, t_degree)
    return "".join(parts) or "0", max(words, 1), degree


@st.composite
def _inputs(draw):
    """(n, mode, text): an expression, or a matrix of them."""
    n = draw(st.integers(1, 3))
    mode = draw(st.sampled_from([BALL, SPHERE]))
    if draw(st.integers(0, 3)):
        return n, mode, draw(_exprs(n, 2))[0]
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return n, mode, "[" + "; ".join(
        ", ".join(draw(_exprs(n, 1))[0] for _ in range(cols))
        for _ in range(rows)) + "]"


def _normal_form_text(n: int, mode: str, text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["normal-form", "--n", str(n), "--mode", mode,
                         f"--expr={text}"]) == cli.EXIT_OK
    (line,) = [l for l in out.getvalue().splitlines()
               if l.startswith("result    : ")]
    return line[len("result    : "):]


@settings(max_examples=150)
@given(_inputs())
def test_normal_form_equals_normalized_free_expansion(case):
    n, mode, text = case
    ctx = AlgebraContext(n, mode)

    def free_path(p: NCPoly) -> str:
        return print_state(*normalize_lifted(p, ctx))

    free = parse_expression(text, n)
    expected = (print_matrix(free, free_path) if isinstance(free, MatPoly)
                else free_path(free))
    result = _normal_form_text(n, mode, text)
    assert result == expected
    again = parse_expression(result, n)
    entries = ([p for row in again.entries for p in row]
               if isinstance(again, MatPoly) else [again])
    assert all(normalize(p, ctx) == p for p in entries)


def test_normal_form_never_expands_freely(monkeypatch):
    """(z1'+z2'+z3')^4 * (z1+z2+z3)^4 has 3^8 free words; in the quotient
    each product is one of canonical words, and no NCPoly is multiplied."""
    def refuse(*args):
        raise AssertionError("free product on the normal-form path")

    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    monkeypatch.setattr(rewrite, "_NF_CACHE", {})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["normal-form", "--n", "3", "--expr",
                         "(z1'+z2'+z3')^4*(z1+z2+z3)^4"]) == cli.EXIT_OK
    assert 0 < len(rewrite._NF_CACHE) < 3 ** 8

