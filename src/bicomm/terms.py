"""Nonassociative terms and their textual syntax.

Terms are binary trees over generators x1, x2, ...; a polynomial is a
formal K-linear combination of trees.  The grammar keeps every product
explicitly bracketed: a bare chain of three or more factors is rejected
as ambiguous.

    poly        := [sign] term { ('+' | '-') term }
    term        := [scalar '*'] factor ['*' factor]
    factor      := 'x' digits | '(' poly ')'
    scalar      := digits | digits '/' digits

One tokenizer and one grammar loop serve two targets.  The loop
evaluates the text as it reads it, given what a leaf x_i is worth and
how two values multiply: parse_expression builds trees with them, for
callers that need trees (identity checks on structure algebras), and
algebra.parse_element multiplies normal forms, so the CLI builds no tree.

Blanks separate tokens, and comments run from '#' to the end of the
line.  Digits are Unicode decimal digits (the characters int() reads,
such as '3' or its Arabic-Indic form '٣'); other digit-like characters
such as the superscript '²' are refused: "expected digits after 'x'"
right after an 'x', "unexpected character" anywhere else.
"""

from __future__ import annotations

import functools
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
        i = self.index
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise BadIndex(f"bad generator index {i!r}")


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
    """The text of each token, left to right.  Offsets are found again
    only for an error message (_offset), so the scan stays in the regex
    engine."""
    return [tok or _refuse(text) for tok, bad in _LEXEME.findall(text) if tok or bad]


def _refuse(text: str):
    """Raise ParseError at the first character that starts no token."""
    m = next(m for m in _LEXEME.finditer(text) if m.lastindex == 2)
    bad = m[2]
    message = "expected digits after 'x'" if bad == "x" else f"unexpected character {bad!r}"
    raise ParseError(message, *_position(text, m.start()))


def _offset(text: str, k: int) -> int:
    """Offset of token k of text; just past the last token if there are k."""
    end = 0
    for n, m in enumerate(m for m in _LEXEME.finditer(text) if m.lastindex == 1):
        if n == k:
            return m.start()
        end = m.end()
    return end


def _parse(text: str, field: Field, leaf, product) -> dict:
    """Evaluate text as it is read.  A value is a dict from keys to nonzero
    scalars: leaf(i) is the value of x_i, product(a, b) the value of the
    product of two values, and sums accumulate through field.add_into.

    The grammar loop keeps a stack of the polys that each '(' opens.  A
    stack entry is (the sum so far, the coefficient of the open term, its
    first factor or None).  Each sum accumulates into one dict, so a long
    sum parses in linear time, and nesting never recurses.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    tokens.append(None)  # the end of the input

    def fail(pos, message, error=ParseError):
        """Raise error at tokens[pos]."""
        if tokens[pos] is None:
            message += " (at end of input)"
        raise error(message, *_position(text, _offset(text, pos)))

    def coefficient(pos):
        """The coefficient of the term at pos, [('+' | '-')] [scalar '*'],
        and the position after it."""
        coeff = field.one
        tok = tokens[pos]
        if tok == "+" or tok == "-":
            pos += 1
            if tok == "-":
                coeff = field.neg(coeff)
            tok = tokens[pos]
        if tok is None or not tok[0].isdecimal():
            return coeff, pos
        pos += 1
        if tokens[pos] == "/":
            den = tokens[pos + 1]
            if den is None or not den[0].isdecimal():
                fail(pos + 1, "expected digits after '/'")
            pos += 2
            tok = f"{tok}/{den}"
        coeff = field.mul(coeff, field.parse_scalar(tok))
        if tokens[pos] != "*":
            fail(pos, "expected '*' after scalar")
        return coeff, pos + 1

    add_into = field.add_into
    stack = []
    result, first = {}, None
    coeff, pos = coefficient(0)
    while True:
        tok = tokens[pos]
        if tok == "(":
            stack.append((result, coeff, first))
            result, first = {}, None
            coeff, pos = coefficient(pos + 1)
            continue
        if tok is None:
            fail(pos, "expected a factor")
        if tok[0] != "x":
            fail(pos, f"expected a factor, got {tok!r}")
        index = int(tok[1:])
        if index < 1:
            fail(pos, f"bad generator index in {tok!r}", BadIndex)
        value = leaf(index)
        pos += 1
        tok = tokens[pos]
        # value is a complete factor: close terms and polys until another
        # factor is due
        while True:
            if first is None and tok == "*":
                pos += 1
                first = value
                break
            if first is not None:
                if tok == "*":
                    fail(pos, "product of three or more factors needs parentheses", AmbiguousProduct)
                value = product(first, value)
            if coeff:
                add_into(result, value.items(), coeff)
            if tok == "+" or tok == "-":
                coeff, pos = coefficient(pos)
                first = None
                break
            if not stack:
                if tok is not None:
                    fail(pos, f"unexpected trailing input {tok!r}")
                return result
            if tok != ")":
                fail(pos, "expected ')'")
            pos += 1
            tok = tokens[pos]
            value = result
            result, coeff, first = stack.pop()


def parse_expression(text: str, field: Field) -> NAPolynomial:
    """The formal combination of trees that text spells."""
    one = field.one
    terms = _parse(text, field, lambda i: {Leaf(i): one}, functools.partial(_product, field))
    return NAPolynomial(field, terms)
