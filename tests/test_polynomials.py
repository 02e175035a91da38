"""Sparse polynomial arithmetic in the two-family monomial ring."""

import random

from bicomm.monomials import Monomial, parse_monomial as pm
from bicomm.orders import weight_key
from bicomm.polynomials import Poly
from bicomm.scalars import Field

SEED = 77

QQ = Field.rationals()
F5 = Field.prime(5)


def _poly(field, *pairs):
    acc = {}
    for text, c in pairs:
        m = pm(text)
        v = field.add(acc.get(m, field.zero), field.from_int(c))
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return Poly(field, acc)


def _random_poly(rng, field, terms=4, max_index=3, max_exp=2):
    acc = {}
    for _ in range(rng.randint(0, terms)):
        ys = {i: rng.randint(0, max_exp) for i in range(1, max_index + 1)}
        zs = {i: rng.randint(0, max_exp) for i in range(1, max_index + 1)}
        m = Monomial(ys.items(), zs.items())
        c = field.from_int(rng.randint(-3, 3))
        v = field.add(acc.get(m, field.zero), c)
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return Poly(field, acc)


def test_zero_and_construction():
    p = Poly(QQ, {pm("y1*z1"): QQ.zero, pm("y1*z2"): QQ.one})
    assert p.terms == {pm("y1*z2"): QQ.one}
    assert Poly.zero(QQ).is_zero
    assert not p.is_zero


def test_ring_axioms_random():
    rng = random.Random(SEED)
    for field in (QQ, F5):
        for _ in range(60):
            a, b, c = (_random_poly(rng, field) for _ in range(3))
            assert a.add(b) == b.add(a)
            assert a.mul(b) == b.mul(a)
            assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
            assert a.mul(b).mul(c) == a.mul(b.mul(c))
            assert a.add_scaled(-1, a).is_zero
            assert a.add(Poly.zero(field)) == a


def test_mul_matches_term_by_term_oracle():
    rng = random.Random(SEED)
    for _ in range(50):
        a = _random_poly(rng, QQ)
        b = _random_poly(rng, QQ)
        want = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = m1 * m2
                want[m] = want.get(m, QQ.zero) + c1 * c2
        want = {m: c for m, c in want.items() if c}
        assert a.mul(b).terms == want


def test_mul_monomial_and_scale():
    p = _poly(QQ, ("y1*z1", 2), ("y2*z1", -1))
    q = p.mul_monomial(pm("y1*z2"))
    assert q == _poly(QQ, ("y1^2*z1*z2", 2), ("y1*y2*z1*z2", -1))
    assert p.scale(QQ.from_int(3)) == _poly(QQ, ("y1*z1", 6), ("y2*z1", -3))
    assert p.scale(QQ.zero).is_zero


def test_leading_and_monic():
    p = _poly(QQ, ("y1*z2", 3), ("y2*z1", 6))
    m, c = p.leading()
    assert m == pm("y2*z1") and c == QQ.from_int(6)
    mp = p.monic()
    assert mp.coefficient(pm("y2*z1")) == QQ.one
    assert mp.coefficient(pm("y1*z2")) == QQ.parse_scalar("1/2")


def test_sorted_terms_descending_weight():
    p = _poly(QQ, ("y1*z1", 1), ("y2*z1", 1), ("y1*z2", 1))
    keys = [weight_key(m) for m, _ in p.sorted_terms()]
    assert keys == sorted(keys, reverse=True)


def test_is_mixed_only():
    assert _poly(QQ, ("y1*z1", 1), ("y2^2*z3", 4)).is_mixed_only
    assert not _poly(QQ, ("y1", 1)).is_mixed_only
    assert not _poly(QQ, ("y1*z1", 1), ("z2", 1)).is_mixed_only
    assert Poly.zero(QQ).is_mixed_only


def test_apply_index_map_distributes():
    p = _poly(QQ, ("y1*z2", 2), ("y2*z1", -1))
    q = p.apply_index_map({1: 3, 2: 5})
    assert q == _poly(QQ, ("y3*z5", 2), ("y5*z3", -1))


def test_str_deterministic():
    p = _poly(QQ, ("y1*z1", 1), ("y1*z2", -2))
    assert str(p) == "-2*y1*z2 + y1*z1"
    assert str(Poly.zero(QQ)) == "0"
