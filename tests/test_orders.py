"""Weight order and embedding order against brute-force oracles."""

import random
from itertools import combinations, product

import pytest

from bicomm.errors import NoWeight
from bicomm.monomials import Monomial, parse_monomial as pm
from bicomm.orders import (
    higman_embedding,
    higman_leq,
    higman_relation,
    minimal_antichain,
    weight_compare,
    weight_key,
    weight_of,
)
from conftest import QQ, quad_element, random_mixed_monomial, random_quad_element

SEED = 24601


def _nonzero_quad(rng):
    """Random quadratic element with a weight (random terms can cancel)."""
    while True:
        f = random_quad_element(rng, QQ)
        if not f.is_zero:
            return f


def _oracle_leq(a, b):
    """Exhaustive search over strictly increasing maps on 1..max_index(a)."""
    n, top = a.max_index, b.max_index
    if n == 0:
        return True
    for image in combinations(range(1, top + 1), n):
        ok = True
        for i, j in zip(range(1, n + 1), image):
            ay, az = a.pair_at(i)
            by, bz = b.pair_at(j)
            if ay > by or az > bz:
                ok = False
                break
        if ok:
            return True
    return False


def _universe(max_index=3, max_exp=1):
    """Every monomial with indices in 1..max_index and exponents <= max_exp."""
    choices = list(product(range(max_exp + 1), repeat=2))
    out = []
    for combo in product(choices, repeat=max_index):
        ys = [(i + 1, ye) for i, (ye, _) in enumerate(combo)]
        zs = [(i + 1, ze) for i, (_, ze) in enumerate(combo)]
        out.append(Monomial(ys, zs))
    return sorted(set(out), key=weight_key)


def test_weight_order_examples():
    assert weight_compare(pm("y2*z1"), pm("y1*z2")) == 1
    assert weight_compare(pm("y1*z2"), pm("y1*z1")) == 1
    assert weight_compare(pm("y1^2*z1"), pm("y1*z1^5")) == 1
    assert weight_compare(pm("y1*z1"), pm("y1*z1")) == 0
    assert weight_compare(pm("y1*y2*z1"), pm("y2*z1")) == 1


def test_weight_order_total_and_antisymmetric():
    universe = _universe(2, 2)
    for a in universe:
        for b in universe:
            s = weight_compare(a, b)
            assert s in (-1, 0, 1)
            assert s == -weight_compare(b, a)
            assert (s == 0) == (a == b)


def test_weight_order_transitive_and_multiplicative():
    rng = random.Random(SEED)
    for _ in range(2000):
        a = random_mixed_monomial(rng)
        b = random_mixed_monomial(rng)
        c = random_mixed_monomial(rng)
        if weight_compare(a, b) <= 0 and weight_compare(b, c) <= 0:
            assert weight_compare(a, c) <= 0
        s = weight_compare(a, b)
        assert weight_compare(a * c, b * c) == s


def test_weight_of_element():
    e = quad_element(QQ, ("y1*z2", 3), ("y2*z1", -2))
    m, c = weight_of(e)
    assert m == pm("y2*z1") and c == QQ.from_int(-2)
    with pytest.raises(NoWeight):
        weight_of(quad_element(QQ))


def test_weight_multiplication_equations():
    """wt(x_i * f) = y_i wt(f) and wt(f * x_i) = wt(f) z_i for quadratic f."""
    from bicomm.algebra import BicommElement

    rng = random.Random(SEED)
    for _ in range(300):
        f = _nonzero_quad(rng)
        i = rng.randint(1, 4)
        x = BicommElement.generator(QQ, i)
        assert weight_of(x * f)[0] == Monomial([(i, 1)], []) * weight_of(f)[0]
        assert weight_of(f * x)[0] == weight_of(f)[0] * Monomial([], [(i, 1)])


def test_weight_respects_index_relabeling():
    rng = random.Random(SEED)
    for _ in range(300):
        f = _nonzero_quad(rng)
        indices = sorted(f.indices())
        targets = sorted(rng.sample(range(1, 10), len(indices)))
        phi = dict(zip(indices, targets))
        g = f.apply_index_map(phi)
        assert weight_of(g)[0] == weight_of(f)[0].apply_index_map(phi)


def test_higman_examples():
    assert higman_leq(pm("y1*z1"), pm("y1^2*z1"))
    assert higman_leq(pm("y1*z1"), pm("y2*z2"))
    assert not higman_leq(pm("y1*z1"), pm("y2*z1"))
    assert not higman_leq(pm("y2*z1"), pm("y1*z2"))
    assert higman_leq(pm("y1*z2"), pm("y1*y2*z2*z3"))
    assert higman_leq(Monomial(), pm("y1*z1"))
    assert higman_relation(pm("y2*z1"), pm("y1*z2")) == "INCOMPARABLE"
    assert higman_relation(pm("y1*z1"), pm("y1*z1^2")) == "LEQ"
    assert higman_relation(pm("y1*z1^2"), pm("y1*z1")) == "GEQ"
    assert higman_relation(pm("y1*z1"), pm("y1*z1")) == "EQ"


def test_higman_agrees_with_exhaustive_oracle():
    universe = _universe(3, 1)
    for a in universe:
        for b in universe:
            assert higman_leq(a, b) == _oracle_leq(a, b), f"{a} vs {b}"


def test_higman_agrees_with_oracle_on_random_bigger_monomials():
    rng = random.Random(SEED)
    for _ in range(2000):
        a = random_mixed_monomial(rng, max_index=4, max_degree=5)
        b = random_mixed_monomial(rng, max_index=5, max_degree=6)
        assert higman_leq(a, b) == _oracle_leq(a, b), f"{a} vs {b}"


def test_higman_is_a_partial_order_on_the_universe():
    rng = random.Random(SEED)
    universe = _universe(2, 2)
    for a in universe:
        assert higman_leq(a, a)
    for a in universe:
        for b in universe:
            if a != b and higman_leq(a, b):
                assert not higman_leq(b, a)
    for _ in range(3000):
        a, b, c = (rng.choice(universe) for _ in range(3))
        if higman_leq(a, b) and higman_leq(b, c):
            assert higman_leq(a, c)


def test_embedding_is_valid_and_increasing():
    rng = random.Random(SEED)
    for _ in range(500):
        a = random_mixed_monomial(rng, max_index=3, max_degree=4)
        b = random_mixed_monomial(rng, max_index=5, max_degree=7)
        phi = higman_embedding(a, b)
        if phi is None:
            continue
        assert sorted(phi) == list(range(1, a.max_index + 1))
        values = [phi[i] for i in sorted(phi)]
        assert all(u < v for u, v in zip(values, values[1:]))
        assert all(phi[i] >= i for i in phi)
        for i in range(1, a.max_index + 1):
            ay, az = a.pair_at(i)
            if ay or az:
                by, bz = b.pair_at(phi[i])
                assert ay <= by and az <= bz


def test_minimal_antichain():
    mons = [pm("y1*z1"), pm("y1*z1^2"), pm("y2*z1"), pm("y1*z2"), pm("y2*z1")]
    out = minimal_antichain(mons)
    assert out == sorted(set(out), key=weight_key)
    for m in out:
        assert m in mons
    for a in mons:
        assert any(higman_leq(m, a) for m in out)
    for m in out:
        for other in out:
            if m != other:
                assert not higman_leq(m, other)
    assert pm("y1*z1^2") not in out


def _antichain_by_all_pairs(monomials) -> list:
    """The former quadratic pass: m is kept unless another element of the
    input embeds into it."""
    unique = sorted(set(monomials))
    return [m for m in unique if not any(o != m and higman_leq(o, m) for o in unique)]


def test_minimal_antichain_matches_the_all_pairs_oracle():
    rng = random.Random(SEED + 7)
    for _ in range(3000):
        mons = [random_mixed_monomial(rng, rng.randint(1, 4), rng.randint(2, 5))
                for _ in range(rng.randint(0, 12))]
        assert minimal_antichain(mons) == _antichain_by_all_pairs(mons)


def test_an_embedding_implies_the_weight_order():
    """The fact that lets minimal_antichain make one ascending pass."""
    rng = random.Random(SEED + 8)
    for _ in range(20000):
        a = random_mixed_monomial(rng, rng.randint(1, 4), rng.randint(2, 5))
        b = random_mixed_monomial(rng, rng.randint(1, 5), rng.randint(2, 7))
        if higman_leq(a, b):
            assert a <= b
