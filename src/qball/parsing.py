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
from typing import List, Optional, Tuple, Union

from .algebra import ContextError, Letter, MatPoly, NCPoly, Word
from .scalars import GaussianRational, Scalar


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

def _rat_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _q_str(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _gauss_str(c: GaussianRational) -> str:
    """Both parts nonzero: 'a/b+c/d*i' (goes inside parentheses)."""
    im_mag = abs(c.im)
    im_txt = "i" if im_mag == 1 else f"{_rat_str(im_mag)}*i"
    joiner = "+" if c.im > 0 else "-"
    return f"{_rat_str(c.re)}{joiner}{im_txt}"


def _mono_str(exponent: int, c: GaussianRational) -> Tuple[bool, Optional[str]]:
    """(sign, text) for a single q-term; text None means the factor 1."""
    if c.im == 0:
        sign = c.re < 0
        mag = abs(c.re)
        pieces = []
        if mag != 1:
            pieces.append(_rat_str(mag))
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces) or None
    if c.re == 0:
        sign = c.im < 0
        mag = abs(c.im)
        pieces = [] if mag == 1 else [_rat_str(mag)]
        pieces.append("i")
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces)
    text = f"({_gauss_str(c)})"
    if exponent:
        text += f"*{_q_str(exponent)}"
    return False, text


def _scalar_sum_str(s: Scalar) -> str:
    parts = []
    for k, c in sorted(s.items()):
        sign, text = _mono_str(k, c)
        if text is None:
            text = "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)


def _scalar_factor(s: Scalar) -> Tuple[bool, Optional[str]]:
    mono = s.monomial()
    if mono is not None:
        return _mono_str(*mono)
    return False, f"({_scalar_sum_str(s)})"


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


def print_poly(p: NCPoly) -> str:
    """Render a polynomial; parse_expression inverts this exactly."""
    if p.is_zero():
        return "0"
    parts = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        sign, stxt = _scalar_factor(p.terms[word])
        wtxt = _word_str(word)
        text = "*".join(t for t in (stxt, wtxt) if t) or "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)


def print_matrix(F: MatPoly) -> str:
    return "[" + "; ".join(
        ", ".join(print_poly(p) for p in row) for row in F.entries) + "]"
