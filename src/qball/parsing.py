"""Concrete syntax for algebra elements, and the matching pretty-printer.

Grammar (whitespace insignificant):

    input    := matrix | expr
    matrix   := '[' row (';' row)* ']'        row := expr (',' expr)*
    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' int)?
    atom     := 'z' digits ["'"] | 'q' | 'i' | rational | '(' expr ')'
    rational := digits ('/' digits)?
    digits   := [0-9]+                        (ASCII digits only)

The postfix prime denotes the adjoint ('*' is taken by multiplication).
Generator powers must be nonnegative; a negative power needs a nonzero
scalar c*q^k.

The parser evaluates as it parses, over lifted states (algebra.Lifted):
Gaussian-integer Laurent numerators over one denominator, the form an
NCPoly holds.  Sums bring two states to the lcm of their denominators and
products multiply them, without reducing.  A product multiplies words with
the word product it is given.  parse_expression uses concatenation and
wraps the result in an NCPoly, which brings it to lowest terms, once at the
end.  qball normal-form passes rewrite.pbw_product, which multiplies in the
quotient: the rewrite rules generate a two-sided ideal and are confluent
(Bergman's diamond lemma), so NF(ab) = NF(NF(a) NF(b)), and reducing each
product as soon as it is parsed gives the normal form of the free
expansion, which is never built.  Whether a negative power is allowed is
decided on the free value in both cases.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from .algebra import (ContextError, Laurent, Letter, Lifted, MatPoly, NCPoly,
                      State, Word, WordProduct, add_lifted, free_product,
                      mul_lifted)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- lexer ------------------------------------------------------------

_SYMBOLS = set("+-*^/()[],;")
_DIGITS = set("0123456789")     # str.isdigit also takes superscripts and others


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind        # 'z' | 'q' | 'i' | 'num' | symbol | 'end'
        self.value = value
        self.pos = pos


def _digits_end(text: str, pos: int) -> int:
    """End of the run of ASCII digits that starts at pos."""
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    return pos


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
        if ch in _DIGITS:
            start, pos = pos, _digits_end(text, pos)
            tokens.append(_Token("num", int(text[start:pos]), start))
            continue
        if ch == "z":
            start, pos = pos, _digits_end(text, pos + 1)
            if pos == start + 1:
                raise ParseError("generator needs an index, e.g. z1", start)
            index = int(text[start + 1:pos])
            starred = pos < size and text[pos] == "'"
            if starred:
                pos += 1
            tokens.append(_Token("z", (index, starred), start))
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
    """The grammar, evaluated over lifted states with one word product:
    free_product for the free algebra, rewrite.pbw_product for its
    quotient."""

    def __init__(self, tokens: List[_Token], n: int, product: WordProduct,
                 at: int = 0):
        self.tokens = tokens
        self.n = n
        self.product = product
        self.at = at

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

    def parse_input(self) -> Union[Lifted, List[List[Lifted]]]:
        if self.peek().kind == "[":
            result = self.parse_matrix()
        else:
            result = self.parse_expr()
        end = self.next()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.kind!r}", end.pos)
        return result

    def parse_matrix(self) -> List[List[Lifted]]:
        open_tok = self.expect("[")
        rows = [self.parse_row()]
        while self.peek().kind == ";":
            self.next()
            rows.append(self.parse_row())
        self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("matrix rows have unequal lengths", open_tok.pos)
        return rows

    def parse_row(self) -> List[Lifted]:
        row = [self.parse_expr()]
        while self.peek().kind == ",":
            self.next()
            row.append(self.parse_expr())
        return row

    def parse_expr(self) -> Lifted:
        if self.peek().kind == "-":
            self.next()
            acc = add_lifted(({}, 1), self.parse_term(), -1)
        else:
            acc = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            acc = add_lifted(acc, self.parse_term(), 1 if op == "+" else -1)
        return acc

    def parse_term(self) -> Lifted:
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            acc = mul_lifted(acc, self.parse_factor(), self.product)
        return acc

    def parse_factor(self) -> Lifted:
        start = self.at
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
        if exponent < 0:
            atom = self.inverse(atom, start, atom_tok.pos)
        if exponent == 0:
            return self.scalar({0: 1}, {})
        out = atom
        for _ in range(abs(exponent) - 1):
            out = mul_lifted(out, atom, self.product)
        return out

    def inverse(self, atom: Lifted, start: int, pos: int) -> Lifted:
        """The inverse of a scalar c*q^k.  Whether the atom is one is read
        from its free value, so both products accept the same inputs; where
        it is one, it is its own normal form."""
        if self.product is not free_product:
            atom = _Parser(self.tokens, self.n, free_product,
                           start).parse_atom()
        state, den = atom
        if not state:
            raise ParseError("zero has no inverse", pos)
        re, im = state.get((), ({}, {}))
        exponents = re.keys() | im.keys()
        if len(state) != 1 or len(exponents) != 1:
            raise ParseError(
                "negative powers are only allowed for scalar factors", pos)
        (k,) = exponents
        a, b = re.get(k, 0), im.get(k, 0)
        # 1 / ((a + ib)/den q^k) = den (a - ib) / (a^2 + b^2) q^-k
        return self.scalar({-k: den * a} if a else {},
                           {-k: -den * b} if b else {}, a * a + b * b)

    def scalar(self, re: Laurent, im: Laurent, den: int = 1) -> Lifted:
        """The constant (re + i*im)/den; like an NCPoly, it needs n >= 1."""
        if self.n < 1:
            raise ContextError(f"need n >= 1, got {self.n}")
        return ({(): (re, im)} if re or im else {}), den

    def parse_atom(self) -> Lifted:
        tok = self.next()
        if tok.kind == "z":
            index, starred = tok.value
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"generator index {index} out of range for n={self.n}",
                    tok.pos)
            return {(Letter(index, starred),): ({0: 1}, {})}, 1
        if tok.kind == "q":
            return self.scalar({1: 1}, {})
        if tok.kind == "i":
            return self.scalar({}, {0: 1})
        if tok.kind == "num":
            den = 1
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("num")
                if den_tok.value == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                den = den_tok.value
            return self.scalar({0: tok.value} if tok.value else {}, {}, den)
        if tok.kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)


def parse_lifted(text: str, n: int, product: WordProduct = free_product
                 ) -> Union[Lifted, List[List[Lifted]]]:
    """Evaluate concrete syntax to a lifted state (state, den), or to rows
    of them for '[...]' input, multiplying words with product."""
    return _Parser(_tokenize(text), n, product).parse_input()


def parse_expression(text: str, n: int) -> Union[NCPoly, MatPoly]:
    """Parse concrete syntax to an NCPoly, or a MatPoly for '[...]' input."""
    parsed = parse_lifted(text, n)
    if isinstance(parsed, list):
        return MatPoly([[NCPoly(n, *entry) for entry in row]
                        for row in parsed])
    return NCPoly(n, *parsed)


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
    """Render the polynomial of a lifted state, reading its Gaussian-integer
    numerators over the one denominator den, which need not be the least."""
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
    return print_state(p.terms, p.den)


T = TypeVar("T")


def print_matrix(F: Union[MatPoly, Sequence[Sequence[T]]],
                 text: Callable[[T], str] = print_poly) -> str:
    """Render a matrix, a MatPoly or its rows, each entry p as text(p)."""
    rows = F.entries if isinstance(F, MatPoly) else F
    return "[" + "; ".join(
        ", ".join(text(p) for p in row) for row in rows) + "]"
