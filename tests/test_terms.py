"""Non-associative terms and the bracketed-expression parser."""

import random
from dataclasses import dataclass

import pytest

from bicomm.errors import AmbiguousProduct, BadIndex, ParseError
from bicomm.scalars import Field
from bicomm.terms import (
    Leaf,
    NAPolynomial,
    Node,
    parse_expression,
    print_term,
    term_degree,
    term_leaves,
)

random.seed(88)

QQ = Field.rationals()
F3 = Field.prime(3)


def _random_term(depth=3, max_index=4):
    if depth == 0 or random.random() < 0.4:
        return Leaf(random.randint(1, max_index))
    return Node(_random_term(depth - 1, max_index), _random_term(depth - 1, max_index))


def test_leaf_validation():
    with pytest.raises(BadIndex):
        Leaf(0)
    assert Leaf(3).index == 3


def test_term_helpers():
    t = Node(Leaf(1), Node(Leaf(2), Leaf(1)))
    assert term_degree(t) == 3
    assert term_leaves(t) == [1, 2, 1]
    assert print_term(t) == "x1*(x2*x1)"


def test_parse_simple_products():
    p = parse_expression("(x1*x2)*x3", QQ)
    assert p == NAPolynomial.term(QQ, Node(Node(Leaf(1), Leaf(2)), Leaf(3)))
    q = parse_expression("x1*(x2*x3)", QQ)
    assert q == NAPolynomial.term(QQ, Node(Leaf(1), Node(Leaf(2), Leaf(3))))
    assert parse_expression("x7", QQ) == NAPolynomial.term(QQ, Leaf(7))


def _nested(depth, left):
    """x1 times itself depth times, nested to the left or to the right."""
    t = Leaf(1)
    for _ in range(depth):
        t = Node(t, Leaf(1)) if left else Node(Leaf(1), t)
    return t


def test_parse_round_trip_random_terms():
    # the deep trees exceed the interpreter's recursion limit several times
    deep = [_nested(5000, left=True), _nested(5000, left=False)]
    for t in [_random_term() for _ in range(100)] + deep:
        assert parse_expression(print_term(t), QQ) == NAPolynomial.term(QQ, t)
    assert [term_degree(t) for t in deep] == [5001, 5001]


def test_parse_linear_combinations():
    p = parse_expression("2*x1 - x2*x3 + 1/2*(x1*x1)", QQ)
    want = (
        NAPolynomial.term(QQ, Leaf(1), QQ.from_int(2))
        .add(NAPolynomial.term(QQ, Node(Leaf(2), Leaf(3)), QQ.from_int(-1)))
        .add(NAPolynomial.term(QQ, Node(Leaf(1), Leaf(1)), QQ.parse_scalar("1/2")))
    )
    assert p == want


def test_parse_cancellation():
    assert parse_expression("x1*x2 - x1*x2", QQ).is_zero
    assert parse_expression("3*x1", F3).is_zero


def test_unparenthesized_triple_product_rejected():
    with pytest.raises(AmbiguousProduct):
        parse_expression("x1*x2*x3", QQ)
    # explicit grouping is fine on both sides
    parse_expression("(x1*x2)*(x3*x4)", QQ)


def test_parse_errors():
    for bad in ("", "x0", "x1 +", "(x1*x2", "x1 * * x2", "y1", "x1 x2"):
        with pytest.raises(ParseError):
            parse_expression(bad, QQ)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + (x2*)", QQ)
    assert err.value.line == 1
    assert err.value.column >= 9


def test_napolynomial_product_is_bilinear():
    for _ in range(40):
        a = NAPolynomial.term(QQ, _random_term(2), QQ.from_int(random.randint(1, 3)))
        b = NAPolynomial.term(QQ, _random_term(2), QQ.from_int(random.randint(1, 3)))
        c = NAPolynomial.term(QQ, _random_term(2), QQ.from_int(random.randint(1, 3)))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.add(b).mul(c) == a.mul(c).add(b.mul(c))


def test_napolynomial_str_sorted_by_degree_then_text():
    p = parse_expression("x2 + x1*(x1*x1) + x1*x2", QQ)
    assert str(p) == "1*x2 + 1*x1*x2 + 1*x1*(x1*x1)"


def test_a_long_sum_parses_like_the_term_by_term_sum():
    """A sum accumulates into one dict, so 4,000 terms parse in linear time."""
    rng = random.Random(4000)
    for field in (QQ, F3):
        terms = [(rng.randint(-3, 3), _random_term(3, 6)) for _ in range(4000)]
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*({print_term(t)})" for c, t in terms)
        want = NAPolynomial.zero(field)
        for c, t in terms:
            want = want.add(NAPolynomial.term(field, t, field.from_int(c)))
        got = parse_expression(text, field)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_non_decimal_digits_are_refused_by_the_lexer():
    """int() reads only decimal digits, so the lexer takes no other digit."""
    for text, message, line, column in (
        ("x1 + \u00b2", "unexpected character '\u00b2'", 1, 6),
        ("2\u00b2*x1", "unexpected character '\u00b2'", 1, 2),
        ("x\u00b2", "expected digits after 'x'", 1, 1),
        ("x1 +\n  \u2460", "unexpected character '\u2460'", 2, 3),
    ):
        with pytest.raises(ParseError) as err:
            parse_expression(text, QQ)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)
    # a decimal digit of another script is a digit
    assert parse_expression("\u0663*x\u0661\u0662", QQ) == NAPolynomial.term(
        QQ, Leaf(12), QQ.from_int(3)
    )


# --- reference parser ------------------------------------------------------
# The character-by-character tokenizer and the NAPolynomial-valued parser
# that the regex scan replaced, kept verbatim as an oracle.


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




def _reference_parse(text, field):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, field)
    poly = parser.parse_poly()
    tok = parser.peek()
    if tok is not None:
        parser.fail(f"unexpected trailing input {tok.text!r}")
    return poly


_BLANKS = ["", "", "", " ", "  ", "\t", "\r\n", "\n", " # note\n", "#x1*(\n"]


def _random_expression(rng, depth=3):
    """An expression that parses over Q."""

    def blank():
        return rng.choice(_BLANKS)

    terms = []
    for k in range(rng.randint(1, 3)):
        sign = rng.choice(["", "+", "-"]) if k == 0 else rng.choice("+-")
        scalar = rng.choice(
            ["", "", str(rng.randint(0, 9)), f"{rng.randint(0, 12)}/{rng.randint(1, 5)}", "\u0663"]
        )
        factors = []
        for _ in range(rng.randint(1, 2)):
            if depth and rng.random() < 0.4:
                factors.append(f"({blank()}{_random_expression(rng, depth - 1)}{blank()})")
            else:
                factors.append(rng.choice(["x", "x", "x0"]) + str(rng.randint(1, 12)))
        term = f"{blank()}*{blank()}".join(factors)
        terms.append(sign + blank() + (f"{scalar}{blank()}*{blank()}" if scalar else "") + term)
    return blank().join(terms)


_ALPHABET = list("x0123456789/*+-()\n\r\t y.\u0663") + ["# c", "#\n", "x1", "x0", "/0"]


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 and k < len(chars):
            del chars[k]
        elif edit == 1:
            chars.insert(k, rng.choice(_ALPHABET))
        elif k + 1 < len(chars):
            chars[k], chars[k + 1] = chars[k + 1], chars[k]
    return "".join(chars)


def _outcome(parse, text, field):
    try:
        p = parse(text, field)
    except Exception as e:  # noqa: BLE001 -- every error must match
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)
    return p, list(p.terms)


def test_the_regex_scan_parses_like_the_character_scanner():
    """Same polynomial with the same term order, or the same error at the
    same place, on valid, mutated and random strings."""
    rng = random.Random(1313)
    corpus = []
    for _ in range(1000):
        text = _random_expression(rng)
        corpus += [text, _mutated(rng, text)]
        corpus.append("".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 16))))
    for field in (QQ, F3):
        errors = 0
        for text in corpus:
            got = _outcome(parse_expression, text, field)
            assert got == _outcome(_reference_parse, text, field), text
            errors += isinstance(got[0], type)
        # the corpus exercises both outcomes
        assert 0.2 * len(corpus) < errors < 0.8 * len(corpus)


def test_leaf_indices_are_ints_that_are_no_bools():
    for index in (1.5, True, "2", 2.0, None):
        with pytest.raises(BadIndex):
            Leaf(index)
