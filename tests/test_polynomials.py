"""Sparse polynomial arithmetic in the two-family monomial ring."""

import copy
import pickle
import random

from bicomm.monomials import Monomial, parse_monomial as pm
from bicomm.orders import weight_key
from bicomm.polynomials import Poly, _poly as trusted_poly
from bicomm.scalars import Field

SEED = 77

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
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


def test_scalars_that_vanish_mod_p_give_zero():
    p = _poly(F3, ("y1*z1", 1), ("y2*z1", 2))
    assert p.scale(3).is_zero and p.scale(-6).is_zero
    assert p.mul_monomial(pm("y1"), 3).is_zero
    assert p.scale(4) == p and p.mul_monomial(pm("z2"), 7) == p.mul_monomial(pm("z2"))
    assert p.scale(5).terms == {pm("y1*z1"): 2, pm("y2*z1"): 1}
    q = _poly(F2, ("y1*z1", 1), ("y1*z2", 1))
    assert q.scale(2).is_zero and q.mul_monomial(pm("y2"), -4).is_zero
    assert q.scale(3) == q and str(q.mul_monomial(pm("y2"), 5)) == "y1*y2*z2 + y1*y2*z1"


def test_hash_is_cached_and_equal_across_constructors():
    rng = random.Random(SEED)
    for field in (QQ, F3, F5):
        for _ in range(20):
            p = _random_poly(rng, field)
            assert p._hash is None
            assert hash(p) == hash((field, frozenset(p.terms.items())))
            assert p._hash == hash(p)
            trusted = trusted_poly(field, dict(p.terms))
            assert trusted._hash is None
            assert trusted == p and hash(trusted) == hash(p) and trusted._hash == hash(p)
            scaled = p.scale(field.from_int(2)).scale(field.inv(field.from_int(2)))
            assert scaled == p and hash(scaled) == hash(p)


def test_copies_and_pickles_rebuild_without_the_cached_hash():
    p = _poly(QQ, ("y1*z1", 3), ("y2*z1", -1))
    h = hash(p)
    # protocols 0 and 1 cannot pickle the slotted Field
    for copied in [copy.copy(p), copy.deepcopy(p)] + [
        pickle.loads(pickle.dumps(p, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert type(copied) is Poly and copied == p and copied.terms is not p.terms
        assert copied._hash is None and hash(copied) == h
        assert copied.leading() == p.leading()
