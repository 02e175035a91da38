"""Nonassociative terms and their textual syntax.

Terms are binary trees over generators x1, x2, ...; a polynomial is a
formal K-linear combination of trees.  The grammar keeps every product
explicitly bracketed: a bare chain of three or more factors is rejected
as ambiguous.

    poly        := [sign] term { ('+' | '-') term }
    term        := [scalar '*'] factor ['*' factor]
    factor      := 'x' digits | '(' poly ')'
    scalar      := digits | digits '/' digits

Blanks separate tokens, and comments run from '#' to the end of the
line.  Digits are Unicode decimal digits (the characters int() reads,
such as '3' or its Arabic-Indic form '٣'); other digit-like characters
such as the superscript '²' are refused: "expected digits after 'x'"
right after an 'x', "unexpected character" anywhere else.
"""

from __future__ import annotations

import re
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
    """Product of two terms.  The hash is taken from the children's when the
    node is built and equality walks an explicit stack, so deep trees never
    recurse."""

    left: NATerm
    right: NATerm

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not (isinstance(a, Node) and isinstance(b, Node)):
                if a != b:
                    return False
            elif a._hash != b._hash:
                return False
            else:
                stack += ((a.right, b.right), (a.left, b.left))
        return True


def _symbols(t: NATerm):
    """Leaves of t, with '(', '*' and ')' around each product, left to right."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Node):
            stack += (")", s.right, "*", s.left, "(")
        else:
            yield s


def term_degree(t: NATerm) -> int:
    return len(term_leaves(t))


def term_leaves(t: NATerm) -> list:
    """Leaf indices in left-to-right order."""
    return [s.index for s in _symbols(t) if isinstance(s, Leaf)]


def print_term(t: NATerm) -> str:
    """Fully parenthesized rendering, e.g. x1*(x2*x3)."""
    text = "".join(f"x{s.index}" if isinstance(s, Leaf) else s for s in _symbols(t))
    return text[1:-1] if isinstance(t, Node) else text  # drop the outermost parentheses


def _product(field: Field, a: dict, b: dict) -> dict:
    """Bilinear product of two {tree: coefficient} dicts: every pair of trees
    becomes a new Node.  Distinct pairs give distinct trees and nonzero
    coefficients have nonzero products, so no term cancels."""
    mul = field.mul
    return {Node(t1, t2): mul(c1, c2) for t1, c1 in a.items() for t2, c2 in b.items()}


class NAPolynomial:
    """Formal linear combination of terms.

    Zero coefficients are never stored: the constructor stores each
    coefficient through Field.canonical and drops the zeros, and sums
    accumulate through Field.add_into.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {t: v for t, c in dict(terms or ()).items() if (v := field.canonical(c))}

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
        self.field.add_into(acc, other.terms.items(), coeff)
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
        return NAPolynomial(self.field, _product(self.field, self.terms, other.terms))

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

# blanks, a comment, a token (group 1), or any other character (group 2),
# such as an 'x' without digits
_LEXEME = re.compile(r"\s+|#[^\n]*|(\d+|x\d+|[-+*/()])|(.)")


def _position(text: str, offset: int) -> tuple:
    """1-based (line, column) of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list:
    """The (text, offset) pair of each token, left to right."""
    tokens = []
    for m in _LEXEME.finditer(text):
        if m.lastindex == 1:
            tokens.append((m[1], m.start()))
        elif m.lastindex:
            bad = m[2]
            message = "expected digits after 'x'" if bad == "x" else f"unexpected character {bad!r}"
            raise ParseError(message, *_position(text, m.start()))
    return tokens


class _Parser:
    """Parses tokens into {tree: coefficient} dicts.  The last token is
    (None, offset just past the input's last real token)."""

    def __init__(self, text: str, tokens: list, field: Field):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        """Text of the next token; None at the end of the input."""
        return self.tokens[self.pos][0]

    def fail(self, message, error=ParseError):
        """Raise error at the next token."""
        tok, offset = self.tokens[self.pos]
        if tok is None:
            message += " (at end of input)"
        raise error(message, *_position(self.text, offset))

    def parse_poly(self) -> dict:
        """Parse a poly; each '(' pushes the enclosing poly on a stack.

        A stack entry is (terms of the sum so far, coefficient of the open
        term, its first factor or None).  Each sum accumulates into one
        dict, so a long sum parses in linear time.
        """
        field = self.field
        stack = []
        result, coeff, first = {}, self.parse_coeff(), None
        while True:
            tok = self.peek()
            if tok == "(":
                self.pos += 1
                stack.append((result, coeff, first))
                result, coeff, first = {}, self.parse_coeff(), None
                continue
            if tok is None:
                self.fail("expected a factor")
            if tok[0] != "x":
                self.fail(f"expected a factor, got {tok!r}")
            index = int(tok[1:])
            if index < 1:
                self.fail(f"bad generator index in {tok!r}", BadIndex)
            self.pos += 1
            value = {Leaf(index): field.one}
            # value is a complete factor: close terms and polys until
            # another factor is due
            while True:
                if first is None and self.peek() == "*":
                    self.pos += 1
                    first = value
                    break
                if first is not None:
                    value = _product(field, first, value)
                    if self.peek() == "*":
                        self.fail(
                            "product of three or more factors needs parentheses", AmbiguousProduct
                        )
                if coeff:
                    field.add_into(result, value.items(), coeff)
                if self.peek() in ("+", "-"):
                    coeff, first = self.parse_coeff(), None
                    break
                if not stack:
                    return result
                if self.peek() != ")":
                    self.fail("expected ')'")
                self.pos += 1
                value = result
                result, coeff, first = stack.pop()

    def parse_coeff(self):
        """The coefficient of a term: [('+' | '-')] [scalar '*']."""
        field = self.field
        coeff = field.one
        sign = self.peek()
        if sign in ("+", "-"):
            self.pos += 1
            if sign == "-":
                coeff = field.neg(coeff)
        scalar = self.peek()
        if scalar is None or not scalar[0].isdecimal():
            return coeff
        self.pos += 1
        if self.peek() == "/":
            self.pos += 1
            den = self.peek()
            if den is None or not den[0].isdecimal():
                self.fail("expected digits after '/'")
            self.pos += 1
            scalar = f"{scalar}/{den}"
        coeff = field.mul(coeff, field.parse_scalar(scalar))
        if self.peek() != "*":
            self.fail("expected '*' after scalar")
        self.pos += 1
        return coeff


def parse_expression(text: str, field: Field) -> NAPolynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    last, offset = tokens[-1]
    tokens.append((None, offset + len(last)))
    parser = _Parser(text, tokens, field)
    terms = parser.parse_poly()
    if parser.peek() is not None:
        parser.fail(f"unexpected trailing input {parser.peek()!r}")
    return NAPolynomial(field, terms)
