"""Sparse two-family monomials: arithmetic, parsing, index maps."""

import random

import pytest

from bicomm.errors import InvalidIndexMap, ParseError
from bicomm.monomials import Monomial, parse_monomial

SEED = 1009


def _random_monomial(rng, max_index=4, max_exp=3):
    ys = {i: rng.randint(0, max_exp) for i in range(1, max_index + 1)}
    zs = {i: rng.randint(0, max_exp) for i in range(1, max_index + 1)}
    return Monomial(ys.items(), zs.items())


def test_construction_drops_zero_exponents():
    m = Monomial([(2, 0), (1, 3)], [(4, 1), (3, 0)])
    assert m.ys == ((1, 3),)
    assert m.zs == ((4, 1),)
    assert m.degree == 4
    assert m.indices() == {1, 4}


def test_invalid_indices_and_exponents():
    with pytest.raises(ValueError):
        Monomial([(0, 1)], [])
    with pytest.raises(ValueError):
        Monomial([], [(1, -2)])


def test_parse_and_print_round_trip():
    cases = ["1", "y1", "z2", "y1*z1", "y2^3*z1*z5^2", "y1*y2*z2*z3"]
    for text in cases:
        m = parse_monomial(text)
        assert parse_monomial(str(m)) == m
    assert str(parse_monomial("z1*y1")) == "y1*z1"
    assert parse_monomial("y1*y1") == parse_monomial("y1^2")


def test_parse_errors():
    for bad in ("", "x1", "y0", "y1**2", "y1*", "y-1"):
        with pytest.raises(ParseError):
            parse_monomial(bad)


def test_mul_div_lcm_against_dict_oracle():
    """Compare the tuple implementation with plain dict arithmetic."""
    rng = random.Random(SEED)
    for _ in range(300):
        a = _random_monomial(rng)
        b = _random_monomial(rng)
        prod = a * b
        for fam in ("ys", "zs"):
            got = dict(getattr(prod, fam))
            want = dict(getattr(a, fam))
            for i, e in getattr(b, fam):
                want[i] = want.get(i, 0) + e
            assert got == {i: e for i, e in want.items() if e}
        assert prod.div(b) == a
        assert a.divides(prod) and b.divides(prod)
        l = a.lcm(b)
        assert a.divides(l) and b.divides(l)
        assert l.divides(a * b)


def test_divides_is_componentwise():
    a = parse_monomial("y1*z2")
    b = parse_monomial("y1^2*z2*z3")
    assert a.divides(b)
    assert not b.divides(a)
    assert not parse_monomial("y2").divides(b)
    assert b.div(a) == parse_monomial("y1*z3")


def test_pair_at_and_multidegree():
    m = parse_monomial("y1^2*y3*z1*z2")
    assert m.pair_at(1) == (2, 1)
    assert m.pair_at(2) == (0, 1)
    assert m.pair_at(3) == (1, 0)
    assert m.pair_at(9) == (0, 0)
    assert m.multidegree() == ((1, 3), (2, 1), (3, 1))
    assert m.max_index == 3
    assert m.is_mixed


def test_apply_index_map():
    m = parse_monomial("y1*y3*z3^2")
    phi = {1: 2, 3: 5}
    assert m.apply_index_map(phi) == parse_monomial("y2*y5*z5^2")
    # extra keys in the map are allowed as long as it stays increasing
    assert m.apply_index_map({1: 2, 2: 3, 3: 5}) == parse_monomial("y2*y5*z5^2")
    with pytest.raises(InvalidIndexMap):
        m.apply_index_map({1: 3, 3: 2})
    with pytest.raises(InvalidIndexMap):
        m.apply_index_map({1: 2})


def test_equality_and_hash():
    a = parse_monomial("y1*z2")
    b = Monomial([(1, 1)], [(2, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, parse_monomial("y1*z2"), parse_monomial("z2*y1")}) == 1
