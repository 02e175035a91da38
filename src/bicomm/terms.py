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

    def at_op(self, ops: str) -> bool:
        """Whether the next token is one of the operator characters ops."""
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in ops

    def parse_poly(self) -> NAPolynomial:
        """Parse a poly; each '(' pushes the enclosing poly on a stack.

        A stack entry is (terms of the sum so far, coefficient of the open
        term, its first factor or None).  Each sum accumulates into one
        dict, so a long sum parses in linear time.
        """
        field = self.field
        add, mul, zero = field.add, field.mul, field.zero
        stack = []
        result, coeff, first = {}, self.parse_coeff(), None
        while True:
            tok = self.next()
            if tok is None:
                self.fail("expected a factor")
            if tok.kind == "op" and tok.text == "(":
                stack.append((result, coeff, first))
                result, coeff, first = {}, self.parse_coeff(), None
                continue
            if tok.kind != "xvar":
                self.fail(f"expected a factor, got {tok.text!r}", tok)
            index = int(tok.text[1:])
            if index < 1:
                raise BadIndex(f"bad generator index in {tok.text!r}", tok.line, tok.column)
            value = NAPolynomial.term(field, Leaf(index))
            # value is a complete factor: close terms and polys until
            # another factor is due
            while True:
                if first is None and self.at_op("*"):
                    self.next()
                    first = value
                    break
                if first is not None:
                    value = first.mul(value)
                    if self.at_op("*"):
                        tok = self.peek()
                        raise AmbiguousProduct(
                            "product of three or more factors needs parentheses",
                            tok.line,
                            tok.column,
                        )
                for t, c in value.terms.items():
                    w = mul(coeff, c)
                    if w:
                        v = add(result.get(t, zero), w)
                        if v:
                            result[t] = v
                        else:
                            del result[t]
                if self.at_op("+-"):
                    coeff, first = self.parse_coeff(), None
                    break
                if not stack:
                    return NAPolynomial(field, result)
                closing = self.next()
                if closing is None or closing.kind != "op" or closing.text != ")":
                    self.fail("expected ')'", closing)
                value = NAPolynomial(field, result)
                result, coeff, first = stack.pop()

    def parse_coeff(self):
        """The coefficient of a term: [('+' | '-')] [scalar '*']."""
        coeff = self.field.one
        if self.at_op("+-") and self.next().text == "-":
            coeff = self.field.neg(coeff)
        tok = self.peek()
        if tok is not None and tok.kind == "num":
            coeff = self.field.mul(coeff, self.parse_scalar())
            star = self.next()
            if star is None or star.kind != "op" or star.text != "*":
                self.fail("expected '*' after scalar", star)
        return coeff

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
