"""Nonassociative terms and their textual syntax.

Terms are binary trees over generators x1, x2, ...; a polynomial is a
formal K-linear combination of trees.  The grammar keeps every product
explicitly bracketed: a bare chain of three or more factors is rejected
as ambiguous.

    poly        := [sign] term { ('+' | '-') term }
    term        := [scalar '*'] factor ['*' factor]
    factor      := 'x' digits | '(' poly ')'
    scalar      := digits | digits '/' digits

Comments run from '#' to the end of the line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbiguousProduct, BadIndex, ParseError
from .scalars import Field


class NATerm:
    """Base class for nonassociative terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(NATerm):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise BadIndex(f"bad generator index {self.index}")


@dataclass(frozen=True)
class Node(NATerm):
    left: NATerm
    right: NATerm


def term_degree(t: NATerm) -> int:
    if isinstance(t, Leaf):
        return 1
    return term_degree(t.left) + term_degree(t.right)


def term_leaves(t: NATerm) -> list:
    """Leaf indices in left-to-right order."""
    if isinstance(t, Leaf):
        return [t.index]
    return term_leaves(t.left) + term_leaves(t.right)


def print_term(t: NATerm) -> str:
    """Fully parenthesized rendering, e.g. x1*(x2*x3)."""

    def wrap(s: NATerm) -> str:
        text = print_term(s)
        return f"({text})" if isinstance(s, Node) else text

    if isinstance(t, Leaf):
        return f"x{t.index}"
    return f"{wrap(t.left)}*{wrap(t.right)}"


class NAPolynomial:
    """Formal linear combination of terms; zero coefficients are dropped."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for t, c in dict(terms).items():
                if c:
                    self.terms[t] = c

    @classmethod
    def zero(cls, field: Field) -> "NAPolynomial":
        return cls(field)

    @classmethod
    def term(cls, field: Field, t: NATerm, coeff=None) -> "NAPolynomial":
        c = field.one if coeff is None else coeff
        return cls(field, {t: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add_scaled(self, coeff, other: "NAPolynomial") -> "NAPolynomial":
        self.field.check_same(other.field)
        acc = dict(self.terms)
        for t, c in other.terms.items():
            v = self.field.add(acc.get(t, self.field.zero), self.field.mul(coeff, c))
            if v:
                acc[t] = v
            else:
                acc.pop(t, None)
        return NAPolynomial(self.field, acc)

    def add(self, other: "NAPolynomial") -> "NAPolynomial":
        return self.add_scaled(self.field.one, other)

    def sub(self, other: "NAPolynomial") -> "NAPolynomial":
        return self.add_scaled(self.field.neg(self.field.one), other)

    def scale(self, coeff) -> "NAPolynomial":
        return NAPolynomial(
            self.field, {t: self.field.mul(coeff, c) for t, c in self.terms.items()}
        )

    def mul(self, other: "NAPolynomial") -> "NAPolynomial":
        """Bilinear product: every pair of trees becomes a new Node."""
        self.field.check_same(other.field)
        acc = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = Node(t1, t2)
                v = self.field.add(acc.get(t, self.field.zero), self.field.mul(c1, c2))
                if v:
                    acc[t] = v
                else:
                    acc.pop(t, None)
        return NAPolynomial(self.field, acc)

    def variables(self) -> set:
        out = set()
        for t in self.terms:
            out.update(term_leaves(t))
        return out

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda tc: (term_degree(tc[0]), print_term(tc[0])))

    def __eq__(self, other):
        return (
            isinstance(other, NAPolynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for t, c in self.sorted_terms():
            parts.append(f"{self.field.format_scalar(c)}*{print_term(t)}")
        return " + ".join(parts)


# --- tokenizer / parser ---------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'xvar', 'op'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "+-*/()":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("num", text[start:i], line, col))
            col += i - start
            continue
        if ch == "x":
            start = i
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            if i == start + 1:
                raise ParseError("expected digits after 'x'", line, col)
            tokens.append(_Token("xvar", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list, field: Field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            raise ParseError(message + " (at end of input)", line, col)
        raise ParseError(message, tok.line, tok.column)

    def parse_poly(self) -> NAPolynomial:
        result = NAPolynomial.zero(self.field)
        sign = self.field.one
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.next()
            if tok.text == "-":
                sign = self.field.neg(sign)
        result = result.add(self.parse_term(sign))
        while True:
            tok = self.peek()
            if tok is None or not (tok.kind == "op" and tok.text in "+-"):
                return result
            self.next()
            sign = self.field.one if tok.text == "+" else self.field.neg(self.field.one)
            result = result.add(self.parse_term(sign))

    def parse_term(self, sign) -> NAPolynomial:
        coeff = sign
        tok = self.peek()
        if tok is not None and tok.kind == "num":
            coeff = self.field.mul(sign, self.parse_scalar())
            star = self.next()
            if star is None or star.kind != "op" or star.text != "*":
                self.fail("expected '*' after scalar", star)
        value = self.parse_factor()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "*":
            self.next()
            value = value.mul(self.parse_factor())
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text == "*":
                raise AmbiguousProduct(
                    "product of three or more factors needs parentheses",
                    tok.line,
                    tok.column,
                )
        return value.scale(coeff)

    def parse_scalar(self):
        num = self.next()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "/":
            self.next()
            den = self.next()
            if den is None or den.kind != "num":
                self.fail("expected digits after '/'", den)
            return self.field.parse_scalar(f"{num.text}/{den.text}")
        return self.field.parse_scalar(num.text)

    def parse_factor(self) -> NAPolynomial:
        tok = self.next()
        if tok is None:
            self.fail("expected a factor")
        if tok.kind == "xvar":
            index = int(tok.text[1:])
            if index < 1:
                raise BadIndex(f"bad generator index in {tok.text!r}", tok.line, tok.column)
            return NAPolynomial.term(self.field, Leaf(index))
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_poly()
            closing = self.next()
            if closing is None or closing.kind != "op" or closing.text != ")":
                self.fail("expected ')'", closing)
            return inner
        self.fail(f"expected a factor, got {tok.text!r}", tok)


def parse_expression(text: str, field: Field) -> NAPolynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, field)
    poly = parser.parse_poly()
    tok = parser.peek()
    if tok is not None:
        parser.fail(f"unexpected trailing input {tok.text!r}")
    return poly
