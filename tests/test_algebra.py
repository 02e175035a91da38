"""Canonical forms in the free algebra and the graded dimension counts.

The central oracle enumerates every full bracketing shape and reads the
normal form off the tree directly: a leaf that is a left child
contributes its y-variable, a right child its z-variable, and each
bracketed word collapses to a single monomial with coefficient one.
"""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicomm.algebra import (
    BicommElement,
    _element,
    graded_dimension,
    multilinear_dimension,
    normalize,
    normalize_term,
    parse_element,
)
from bicomm.errors import BadElement, DivisionByZero, InvalidIndexMap
from bicomm.monomials import Monomial, parse_monomial as pm
from bicomm.polynomials import Poly, _poly
from bicomm.terms import Leaf, NAPolynomial, Node, parse_expression, print_term
from conftest import QQ, F2, F3, element, quad_element, random_element, random_quad_element

SEED = 3571

# random trees of up to 12 leaves over x1..x4, and the three test fields
_trees = st.recursive(
    st.builds(Leaf, st.integers(1, 4)), lambda sub: st.builds(Node, sub, sub), max_leaves=12
)
_fields = st.sampled_from([QQ, F2, F3])


def _shapes(n, start=1):
    """All full binary trees with n leaves, leaves labeled start.. in order."""
    if n == 1:
        return [Leaf(start)]
    out = []
    for k in range(1, n):
        for left in _shapes(k, start):
            for right in _shapes(n - k, start + k):
                out.append(Node(left, right))
    return out


def _relabel(t, word):
    if isinstance(t, Leaf):
        return Leaf(word[t.index - 1])
    return Node(_relabel(t.left, word), _relabel(t.right, word))


def _oracle_monomial(t):
    """Predicted normal form of a tree with at least two leaves."""
    ys, zs = {}, {}

    def walk(s, target):
        if isinstance(s, Leaf):
            target[s.index] = target.get(s.index, 0) + 1
            return
        walk(s.left, ys)
        walk(s.right, zs)

    walk(t.left, ys)
    walk(t.right, zs)
    return Monomial(ys.items(), zs.items())


def _fold_normal_form(t, field):
    """Reference normal form that shares no code with the slot rule: fold
    BicommElement.multiply over the tree on an explicit stack, where a None
    mark multiplies the last two finished normal forms."""
    done = []
    todo = [t]
    while todo:
        s = todo.pop()
        if s is None:
            right = done.pop()
            done[-1] = done[-1].multiply(right)
        elif isinstance(s, Leaf):
            done.append(BicommElement.generator(field, s.index))
        else:
            todo += (None, s.right, s.left)
    return done[0]


def _normalize_by_terms(poly):
    """Reference normalize: add the folded normal forms term by term."""
    out = BicommElement.zero(poly.field)
    for t, c in poly.terms.items():
        out = out.add_scaled(c, _fold_normal_form(t, poly.field))
    return out


def _twin(t):
    """A tree with the same normal form as t, by right commutativity
    (ab)c = (ac)b or left commutativity a(bc) = b(ac) at the root."""
    if isinstance(t, Node) and isinstance(t.left, Node):
        return Node(Node(t.left.left, t.right), t.left.right)
    if isinstance(t, Node) and isinstance(t.right, Node):
        return Node(t.right.left, Node(t.left, t.right.right))
    return t


@st.composite
def _polys(draw):
    """Random NAPolynomial; a term drawn with cancel=True also subtracts its
    twin, so that normal forms of distinct trees cancel in the sum."""
    field = draw(_fields)
    p = NAPolynomial.zero(field)
    for t, c, cancel in draw(st.lists(st.tuples(_trees, st.integers(-4, 4), st.booleans()),
                                      max_size=8)):
        c = field.from_int(c)
        p = p.add(NAPolynomial(field, {t: c}))
        if cancel:
            p = p.sub(NAPolynomial(field, {_twin(t): c}))
    return p


def test_product_rule_examples():
    x = lambda i: BicommElement.generator(QQ, i)
    assert x(1) * x(2) == quad_element(QQ, ("y1*z2", 1))
    assert (x(1) * x(2)) * x(3) == quad_element(QQ, ("y1*z2*z3", 1))
    assert x(1) * (x(2) * x(3)) == quad_element(QQ, ("y1*y2*z3", 1))
    assert x(2) * x(2) == quad_element(QQ, ("y2*z2", 1))


def test_defining_identities_on_random_elements():
    """Left and right commutativity hold for arbitrary elements."""
    rng = random.Random(SEED)
    for field in (QQ, F2, F3):
        for _ in range(60):
            a = random_element(rng, field)
            b = random_element(rng, field)
            c = random_element(rng, field)
            assert a * (b * c) == b * (a * c)
            assert (a * b) * c == (a * c) * b


def test_square_is_commutative_and_associative():
    rng = random.Random(SEED)
    for _ in range(40):
        a = random_quad_element(rng, QQ)
        b = random_quad_element(rng, QQ)
        c = random_quad_element(rng, QQ)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_normalize_term_matches_child_side_oracle():
    """Each bracketed word normalizes to the single predicted monomial."""
    for n in range(2, 6):
        for shape in _shapes(n):
            for word in product((1, 2), repeat=n):
                t = _relabel(shape, word)
                got = normalize_term(t, QQ)
                assert not got.lin
                assert got.quad.terms == {_oracle_monomial(t): QQ.one}


@settings(max_examples=300, deadline=None)
@given(_trees, _trees, _fields)
def test_normal_form_of_a_product_is_the_product_of_normal_forms(left, right, field):
    """The slot rule agrees with multiply's t(f) s(g) rule at every root."""
    got = normalize_term(Node(left, right), field)
    assert got == normalize_term(left, field) * normalize_term(right, field)


@settings(max_examples=300, deadline=None)
@given(_polys())
def test_normalize_matches_the_term_by_term_fold(poly):
    assert normalize(poly) == _normalize_by_terms(poly)


@settings(max_examples=300, deadline=None)
@given(_trees, _fields)
def test_printed_tree_parses_back_to_itself(t, field):
    assert parse_expression(print_term(t), field) == NAPolynomial.term(field, t)


def test_bracketing_rank_equals_graded_dimension():
    """Distinct normal forms of all bracketings/words count the graded piece."""
    for d in (1, 2, 3):
        for n in (2, 3, 4):
            seen = set()
            for shape in _shapes(n):
                for word in product(range(1, d + 1), repeat=n):
                    value = normalize_term(_relabel(shape, word), QQ)
                    ((m, c),) = value.quad.terms.items()
                    assert c == QQ.one
                    seen.add(m)
            assert len(seen) == graded_dimension(d, n)


def test_graded_dimension_against_direct_monomial_count():
    """Count mixed monomials with stars and bars done by enumeration."""
    for d in range(0, 5):
        for n in range(2, 8):
            count = 0
            for a in range(1, n):
                ych = len(list(combinations_with_replacement(range(d), a)))
                zch = len(list(combinations_with_replacement(range(d), n - a)))
                count += ych * zch
            assert graded_dimension(d, n) == count
        assert graded_dimension(d, 1) == d


def test_multilinear_dimension_by_enumeration():
    for n in range(2, 6):
        seen = set()
        for shape in _shapes(n):
            for word in permutations(range(1, n + 1)):
                value = normalize_term(_relabel(shape, word), QQ)
                seen.add(next(iter(value.quad.terms)))
        assert len(seen) == multilinear_dimension(n)
        assert multilinear_dimension(n) == 2 ** n - 2
    assert multilinear_dimension(1) == 1


def test_closed_form_dimensions_match_the_sums():
    """The closed forms agree with the block-size sums they replaced."""

    def graded_by_blocks(d, n):
        if n == 1 or d == 0:
            return d
        return sum(comb(a + d - 1, d - 1) * comb(n - a + d - 1, d - 1) for a in range(1, n))

    for n in range(1, 41):
        assert multilinear_dimension(n) == (1 if n == 1 else sum(comb(n, k) for k in range(1, n)))
        for d in range(0, 7):
            assert graded_dimension(d, n) == graded_by_blocks(d, n), (d, n)


def test_normalize_is_linear_in_the_input():
    p = parse_expression("2*(x1*x2) - x2*x1", QQ)
    assert normalize(p) == quad_element(QQ, ("y1*z2", 2), ("y2*z1", -1))
    assert normalize(parse_expression("x1*(x2*x3) - x2*(x1*x3)", QQ)).is_zero
    assert normalize(parse_expression("(x1*x2)*x3 - (x1*x3)*x2", QQ)).is_zero


def _scalars(field):
    if field.is_rationals:
        return st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
    return st.integers(0, field.characteristic - 1)


@st.composite
def _elements(draw, field):
    """Random element with a linear part, indices 1..3 and one past the
    small ones that have prebuilt variables, and a mixed quadratic part."""
    indices = st.sampled_from([1, 2, 3, 70])
    lin = draw(st.dictionaries(indices, _scalars(field), max_size=3))
    quad = {}
    for ys, zs, c in draw(st.lists(st.tuples(
        st.dictionaries(indices, st.integers(1, 3), min_size=1, max_size=2),
        st.dictionaries(indices, st.integers(1, 3), min_size=1, max_size=2),
        _scalars(field),
    ), max_size=4)):
        quad[Monomial(ys.items(), zs.items())] = c
    return BicommElement(field, lin, Poly(field, quad))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_equal_the_validated_element(data):
    """multiply builds its result without re-validation; it must equal the
    validated element t(a) s(b) and pass the validating constructor."""
    field = data.draw(_fields)
    a, b = data.draw(_elements(field)), data.draw(_elements(field))
    p = a.multiply(b)
    want = BicommElement(field, {}, a.t_poly().mul(b.s_poly()))
    assert p == want and str(p) == str(want)
    assert BicommElement(field, p.lin, p.quad) == p
    assert p.field is field and p.lin == {}
    assert all(p.quad.terms.values()) and p.quad.is_mixed_only
    for c in p.quad.terms.values():
        assert type(c) in (int, Fraction)
        assert field.is_rationals or 0 < c < field.characteristic


_raw_scalars = st.one_of(
    st.integers(-12, 12), st.fractions(min_value=-12, max_value=12, max_denominator=6)
)


def _field_value(field, a):
    """The element that a stands for, in Field arithmetic alone."""
    if isinstance(a, Fraction):
        return field.div(field.from_int(a.numerator), field.from_int(a.denominator))
    return field.from_int(a)


@settings(max_examples=300, deadline=None)
@given(_fields, st.dictionaries(st.integers(1, 3), _raw_scalars, max_size=3), _raw_scalars)
def test_public_constructors_store_canonical_coefficients(field, lin, c):
    """An int or Fraction coefficient is stored as the element it stands for:
    over F_p its residue, so an element is zero exactly when every
    coefficient vanishes mod p."""
    assume(all(field.is_rationals or Fraction(a).denominator % field.characteristic
               for a in list(lin.values()) + [c]))
    m = pm("y1*z2")
    want_lin = {i: v for i, a in lin.items() if (v := _field_value(field, a))}
    want_c = _field_value(field, c)
    e = BicommElement(field, lin, Poly(field, {m: c}))
    assert e.lin == want_lin and type(e.lin) is dict
    assert e.quad.terms == ({m: want_c} if want_c else {})
    assert e.is_zero == (not want_lin and not want_c)
    assert e == _element(field, want_lin, _poly(field, {m: want_c} if want_c else {}))
    for v in list(e.lin.values()) + list(e.quad.terms.values()):
        assert type(v) in (int, Fraction)
        assert field.is_rationals or 0 < v < field.characteristic
    assert str(e) == str(BicommElement(field, want_lin, Poly(field, {m: want_c})))


def test_public_constructors_reject_coefficients_that_are_no_scalars():
    m = pm("y1*z1")
    for field in (QQ, F3):
        for bad in (1.5, 0.0, True, "1", None):
            with pytest.raises(BadElement):
                BicommElement(field, {1: bad})
            with pytest.raises(BadElement):
                Poly(field, {m: bad})
    with pytest.raises(DivisionByZero):
        BicommElement(F3, {1: Fraction(1, 3)})
    assert str(BicommElement(F3, {1: 3, 2: -1})) == "2*x2"
    assert BicommElement(F3, {1: 3}).is_zero


def test_formal_sums_store_canonical_coefficients():
    """NAPolynomial stores each coefficient through Field.canonical: a
    multiple of p is zero and normalizes to zero, and a value that is no
    scalar is refused instead of reaching exact arithmetic."""
    t = Node(Leaf(1), Leaf(2))
    for terms in ({Leaf(1): 3}, {Leaf(1): 3, t: 6}):
        f = NAPolynomial(F3, terms)
        assert f.is_zero and f.terms == {}
        assert normalize(f).is_zero
    f = NAPolynomial(F3, {Leaf(1): 4, t: -1})
    assert f.terms == {Leaf(1): 1, t: 2}
    assert normalize(f) == element(F3, lin={1: 1}, quad=[("y1*z2", 2)])
    for field in (QQ, F3):
        for bad in (0.5, 1.0, True, False):
            with pytest.raises(BadElement):
                NAPolynomial(field, {Leaf(1): bad})
            with pytest.raises(BadElement):
                NAPolynomial.term(field, t, bad)


def test_mixed_only_invariant_enforced():
    with pytest.raises(BadElement):
        BicommElement.from_quad(Poly(QQ, {pm("y1"): QQ.one}))
    with pytest.raises(BadElement):
        BicommElement.from_quad(Poly(QQ, {pm("z2^3"): QQ.one}))
    with pytest.raises(BadElement):
        BicommElement(QQ, {0: QQ.one})


def test_vector_space_operations():
    a = element(QQ, lin={1: 2}, quad=[("y1*z1", 1)])
    b = element(QQ, lin={1: -2, 2: 1}, quad=[("y1*z1", 1)])
    s = a + b
    assert s == element(QQ, lin={2: 1}, quad=[("y1*z1", 2)])
    assert (a - a).is_zero
    assert -a == a.scale(QQ.from_int(-1))
    assert a.add_scaled(QQ.from_int(3), b) == element(
        QQ, lin={1: -4, 2: 3}, quad=[("y1*z1", 4)]
    )


def test_scaling_by_a_multiple_of_p_gives_zero():
    for field, p in ((F2, 2), (F3, 3)):
        e = element(field, lin={1: 1}, quad=[("y1*z1", 1), ("y2*z1", p - 1)])
        for c in (p, -p, 2 * p):
            assert e.scale(c).is_zero and str(e.scale(c)) == "0"
            assert e.scale(c) == BicommElement.zero(field)
        assert e.scale(p + 1) == e and str(e.scale(p + 1)) == str(e)
    assert str(quad_element(F3, ("y1*z1", 1)).scale(3)) == "0"
    assert element(F3, lin={2: 1}, quad=[("y1*z2", 2)]).scale(5).quad.terms == {pm("y1*z2"): 1}


def test_t_and_s_polynomials():
    rng = random.Random(SEED)
    e = element(QQ, lin={2: 3}, quad=[("y1*z1", 1)])
    assert e.t_poly() == Poly(QQ, {pm("y2"): QQ.from_int(3), pm("y1*z1"): QQ.one})
    assert e.s_poly() == Poly(QQ, {pm("z2"): QQ.from_int(3), pm("y1*z1"): QQ.one})
    # the product of any two elements only sees t of the left and s of the right
    f = random_element(rng, QQ)
    g = random_element(rng, QQ)
    assert (f * g).quad == f.t_poly().mul(g.s_poly())


def test_degree_and_indices():
    e = element(QQ, lin={5: 1}, quad=[("y1*z2", 1), ("y1^2*z1*z3", 2)])
    assert e.degree() == 4
    assert e.indices() == {1, 2, 3, 5}
    assert e.max_index() == 5


def test_split_multihomogeneous():
    e = element(QQ, lin={1: 1}, quad=[("y1*z2", 1), ("y2*z1", -1), ("y1*z1^2", 5)])
    parts = e.split_multihomogeneous()
    assert set(parts) == {((1, 1),), ((1, 1), (2, 1)), ((1, 3),)}
    assert parts[((1, 1), (2, 1))] == quad_element(QQ, ("y1*z2", 1), ("y2*z1", -1))
    assert parts[((1, 3),)] == quad_element(QQ, ("y1*z1^2", 5))
    total = BicommElement.zero(QQ)
    for part in parts.values():
        total = total + part
    assert total == e
    for key, part in parts.items():
        if part.lin:
            continue
        for m in part.quad.terms:
            assert m.multidegree() == key


def _split_by_terms(e):
    """Reference split: add each term to the running sum of its part."""
    parts = {}
    zero = BicommElement.zero(e.field)
    for i, c in e.lin.items():
        key = ((i, 1),)
        parts[key] = parts.get(key, zero) + BicommElement(e.field, {i: c})
    for m, c in e.quad.terms.items():
        key = m.multidegree()
        parts[key] = parts.get(key, zero) + BicommElement.from_quad(Poly(e.field, {m: c}))
    return parts


def test_split_multihomogeneous_matches_the_term_by_term_split():
    rng = random.Random(SEED)
    cases = [
        random_element(rng, field, max_index=4, terms=12)
        for field in (QQ, F2, F3)
        for _ in range(40)
    ]
    # 4,000 multilinear terms of one multidegree: y on the set bits, z on the rest
    big = {}
    for bits in range(1, 4001):
        ys = [(i, 1) for i in range(1, 13) if bits >> (i - 1) & 1]
        zs = [(i, 1) for i in range(1, 13) if not bits >> (i - 1) & 1]
        big[Monomial(ys, zs)] = QQ.from_int(rng.choice([-2, -1, 1, 3]))
    cases.append(BicommElement.from_quad(Poly(QQ, big)))
    for e in cases:
        parts = e.split_multihomogeneous()
        assert parts == _split_by_terms(e)
        total = BicommElement.zero(e.field)
        for part in parts.values():
            total = total + part
        assert total == e


def test_apply_index_map_on_elements():
    e = element(QQ, lin={1: 2}, quad=[("y1*z2", 1)])
    out = e.apply_index_map({1: 3, 2: 4})
    assert out == element(QQ, lin={3: 2}, quad=[("y3*z4", 1)])
    with pytest.raises(InvalidIndexMap):
        e.apply_index_map({1: 4, 2: 4})
    with pytest.raises(InvalidIndexMap):
        e.apply_index_map({1: 3})


def test_element_str_and_hash():
    e = element(QQ, lin={2: 1, 1: -1}, quad=[("y1*z2", 1), ("y2*z1", -1)])
    assert str(e) == "-y2*z1 + y1*z2 - x1 + x2"
    assert str(BicommElement.zero(QQ)) == "0"
    copy = element(QQ, lin={1: -1, 2: 1}, quad=[("y2*z1", -1), ("y1*z2", 1)])
    assert hash(e) == hash(copy) and e == copy


def test_generator_indices_are_ints_that_are_no_bools():
    for bad in (1.5, True, False, "3", 0, -1, None):
        with pytest.raises(BadElement):
            BicommElement.generator(QQ, bad)
        with pytest.raises(BadElement):
            BicommElement(QQ, {bad: 1})
    # a key is checked even when its coefficient is zero
    with pytest.raises(BadElement):
        BicommElement(F3, {"3": 3})
    for field in (QQ, F2, F3):
        g = BicommElement.generator(field, 70)
        assert g == BicommElement(field, {70: 1}) and str(g) == "x70"
        assert g.quad == Poly.zero(field) and g.lin == {70: field.one}


def _factor(t):
    return print_term(t) if isinstance(t, Leaf) else f"({print_term(t)})"


def _sum_text(draw, field, depth):
    """A bracketed sum over field: printed trees, and nested sums in
    parentheses alone or times a tree or another such sum, with integer, a/b and zero scalars (every
    multiple of p is zero over F_p).  A tree drawn with cancel=True is
    followed by its left- or right-commutativity twin with the opposite
    sign, so the two normal forms cancel."""
    dens = [1, 2, 5] if field.is_rationals else [1, 5, 7]
    parts = []
    for k in range(draw(st.integers(1, 3))):
        num, den = draw(st.integers(0, 6)), draw(st.sampled_from(dens))
        scalar = draw(st.sampled_from(["", f"{num}*", f"{num}/{den}*"]))
        sign = draw(st.sampled_from(["+ ", "- "] if k else ["", "-"]))
        t = draw(_trees)
        if depth and draw(st.booleans()):
            inner = f"({_sum_text(draw, field, depth - 1)})"
            other = draw(st.sampled_from(["", _factor(t), "sum"]))
            if other == "sum":
                other = f"({_sum_text(draw, field, depth - 1)})"
            body = draw(st.sampled_from([f"{inner}*{other}", f"{other}*{inner}"])) if other else inner
            parts.append(f"{sign}{scalar}{body}")
            continue
        parts.append(f"{sign}{scalar}{print_term(t)}")
        if draw(st.booleans()):
            other = "+ " if sign.startswith("-") else "- "
            parts.append(f"{other}{scalar}{print_term(_twin(t))}")
    return " ".join(parts)


def _outcome(parse, text, field):
    try:
        value = parse(text, field)
    except Exception as e:  # noqa: BLE001 -- every error must match
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)
    return value, str(value)


def _through_trees(text, field):
    return normalize(parse_expression(text, field))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_element_is_normalize_of_the_parsed_trees(data):
    field = data.draw(_fields)
    text = _sum_text(data.draw, field, 2)
    got, want = parse_element(text, field), _through_trees(text, field)
    assert got == want and str(got) == str(want), text
    assert got.quad.is_mixed_only and all(got.quad.terms.values()) and all(got.lin.values())


# tokens that a mutation may insert: the big index cannot be packed, so it
# runs parse_element through the trees
_INSERTS = ["x1", "x0", "x2000000", "x", "(", ")", "*", "+", "-", "/", "0", "3", "#", "\u00b2"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_element_fails_like_the_trees_on_mutated_text(data):
    """A token dropped, inserted or swapped: the same error class, message
    and position on both paths, or equal results."""
    field = data.draw(_fields)
    tokens = re.findall(r"x\d+|\d+|[-+*/()]", _sum_text(data.draw, field, 2))
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(tokens)))
        edit = data.draw(st.sampled_from(["drop", "insert", "swap"]))
        if edit == "drop" and k < len(tokens):
            del tokens[k]
        elif edit == "insert":
            tokens.insert(k, data.draw(st.sampled_from(_INSERTS)))
        elif k + 1 < len(tokens):
            tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    text = " ".join(tokens)
    got = _outcome(parse_element, text, field)
    assert got == _outcome(_through_trees, text, field), text
