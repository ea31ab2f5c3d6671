"""Concrete syntax for algebra elements, and the matching pretty-printer.

Grammar (whitespace insignificant):

    input    := matrix | expr
    matrix   := '[' row (';' row)* ']'        row := expr (',' expr)*
    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' int)?
    atom     := 'z' digits ["'"] | 'q' | 'i' | rational | '(' expr ')'
    rational := digits ('/' digits)?

The postfix prime denotes the adjoint ('*' is taken by multiplication).
Generator powers must be nonnegative; q may carry any integer power.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Tuple, Union

from .algebra import ContextError, Letter, MatPoly, NCPoly, State, Word, lift
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- lexer ------------------------------------------------------------

_SYMBOLS = set("+-*^/()[],;")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind        # 'z' | 'q' | 'i' | 'num' | symbol | 'end'
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < size and text[pos].isdigit():
                pos += 1
            tokens.append(_Token("num", int(text[start:pos]), start))
            continue
        if ch == "z":
            start = pos
            pos += 1
            digits = ""
            while pos < size and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits:
                raise ParseError("generator needs an index, e.g. z1", start)
            starred = pos < size and text[pos] == "'"
            if starred:
                pos += 1
            tokens.append(_Token("z", (int(digits), starred), start))
            continue
        if ch == "q":
            tokens.append(_Token("q", "q", pos))
            pos += 1
            continue
        if ch == "i":
            tokens.append(_Token("i", "i", pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", None, size))
    return tokens


# -- parser -----------------------------------------------------------

class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.n = n
        self.at = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def next(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return tok

    def parse_input(self) -> Union[NCPoly, MatPoly]:
        if self.peek().kind == "[":
            result = self.parse_matrix()
        else:
            result = self.parse_expr()
        end = self.next()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.kind!r}", end.pos)
        return result

    def parse_matrix(self) -> MatPoly:
        open_tok = self.expect("[")
        rows = [self.parse_row()]
        while self.peek().kind == ";":
            self.next()
            rows.append(self.parse_row())
        self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("matrix rows have unequal lengths", open_tok.pos)
        return MatPoly(rows)

    def parse_row(self) -> List[NCPoly]:
        row = [self.parse_expr()]
        while self.peek().kind == ",":
            self.next()
            row.append(self.parse_expr())
        return row

    def parse_expr(self) -> NCPoly:
        if self.peek().kind == "-":
            self.next()
            acc = -self.parse_term()
        else:
            acc = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term(self) -> NCPoly:
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> NCPoly:
        atom_tok = self.peek()
        atom = self.parse_atom()
        if self.peek().kind != "^":
            return atom
        self.next()
        negative = False
        if self.peek().kind == "-":
            self.next()
            negative = True
        exp_tok = self.expect("num")
        exponent = -exp_tok.value if negative else exp_tok.value
        try:
            return atom ** exponent
        except (ContextError, ZeroDivisionError):
            raise ParseError(
                "negative powers are only allowed for scalar factors",
                atom_tok.pos) from None

    def parse_atom(self) -> NCPoly:
        tok = self.next()
        if tok.kind == "z":
            index, starred = tok.value
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"generator index {index} out of range for n={self.n}",
                    tok.pos)
            return NCPoly.generator(self.n, index, starred)
        if tok.kind == "q":
            return NCPoly.from_scalar(self.n, Scalar.q())
        if tok.kind == "i":
            return NCPoly.from_scalar(self.n, Scalar.i())
        if tok.kind == "num":
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.next()
                den = self.expect("num")
                if den.value == 0:
                    raise ParseError("zero denominator", den.pos)
                value /= den.value
            return NCPoly.from_scalar(self.n, Scalar.from_rational(value))
        if tok.kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)


def parse_expression(text: str, n: int) -> Union[NCPoly, MatPoly]:
    """Parse concrete syntax to an NCPoly, or a MatPoly for '[...]' input."""
    return _Parser(text, n).parse_input()


# -- pretty printer ---------------------------------------------------

def _rat_str(num: int, den: int) -> str:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _q_str(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _mono_str(exponent: int, re: int, im: int,
              den: int) -> Tuple[bool, Optional[str]]:
    """(sign, text) for (re + i*im)/den * q^exponent; text None means 1."""
    if re and im:
        im_txt = "i" if abs(im) == den else f"{_rat_str(abs(im), den)}*i"
        text = f"({_rat_str(re, den)}{'+' if im > 0 else '-'}{im_txt})"
        if exponent:
            text += f"*{_q_str(exponent)}"
        return False, text
    mag = abs(re or im)
    pieces = [] if mag == den else [_rat_str(mag, den)]
    if im:
        pieces.append("i")
    if exponent:
        pieces.append(_q_str(exponent))
    return (re or im) < 0, "*".join(pieces) or None


def _signed_sum(parts: List[Tuple[bool, str]]) -> str:
    """'a - b + c' from (negative, text) pairs."""
    out: List[str] = []
    for sign, text in parts:
        if out:
            out.append(("- " if sign else "+ ") + text)
        else:
            out.append(("-" if sign else "") + text)
    return " ".join(out)


def _word_str(word: Word) -> Optional[str]:
    if not word:
        return None
    runs: List[Tuple[Letter, int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return "*".join(str(l) if e == 1 else f"{l}^{e}" for l, e in runs)


def print_state(state: State, den: int) -> str:
    """Render the polynomial of a lifted state (algebra.lift), reading its
    Gaussian-integer numerators over the one denominator den."""
    parts = []
    for word in sorted(state, key=lambda w: (len(w), w)):
        re, im = state[word]
        monos = [_mono_str(k, re.get(k, 0), im.get(k, 0), den)
                 for k in sorted(re.keys() | im.keys())]
        if len(monos) == 1:
            sign, stxt = monos[0]
        else:
            sign = False
            stxt = "(" + _signed_sum([(s, t or "1") for s, t in monos]) + ")"
        parts.append((sign, "*".join(t for t in (stxt, _word_str(word)) if t)
                      or "1"))
    return _signed_sum(parts) or "0"


def print_poly(p: NCPoly) -> str:
    """Render a polynomial; parse_expression inverts this exactly."""
    return print_state(*lift(p))


def print_matrix(F: MatPoly,
                 text: Callable[[NCPoly], str] = print_poly) -> str:
    """Render a matrix, each entry p as text(p)."""
    return "[" + "; ".join(
        ", ".join(text(p) for p in row) for row in F.entries) + "]"
