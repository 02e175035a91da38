"""Non-associative terms and the bracketed-expression parser."""

import random

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
