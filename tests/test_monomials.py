"""Packed two-family monomials: arithmetic, parsing, index maps."""

import copy
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.cli import main
from bicomm.errors import InvalidIndexMap, ParseError
from bicomm.monomials import Monomial, _fieldmax, _monomial, parse_monomial
from bicomm.orders import weight_key

SEED = 1009


def _lcm(a, b):
    """lcm through the fieldwise maximum of the packed pairs, which the
    pair queue of the Groebner loop runs."""
    (ay, az), (by, bz) = a, b
    return _monomial(_fieldmax(ay, by), _fieldmax(az, bz))


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
    """Compare the packed implementation with plain dict arithmetic."""
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
        l = _lcm(a, b)
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


def test_copies_rebuild_and_tuple_operators_stay_off():
    """A monomial is the tuple (Y, Z): copies and pickles rebuild it through
    the constructor, and tuple concatenation and repetition raise."""
    for m in (Monomial(), parse_monomial("y1^2*z3"), parse_monomial("y200^5*z7*z150")):
        for copied in [copy.copy(m), copy.deepcopy(m)] + [
            pickle.loads(pickle.dumps(m, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            assert type(copied) is Monomial
            assert copied == m and hash(copied) == hash(m) and str(copied) == str(m)
        with pytest.raises(TypeError):
            m + m
        with pytest.raises(TypeError):
            3 * m


# --- packed exponent vectors against a plain dict-of-exponents reference ------

LIMIT = 1 << 31  # exponents stay below the guard bit of their 32-bit field

_indices = st.one_of(st.integers(1, 4), st.integers(1, 200))
_exponents = st.one_of(
    st.integers(0, 4), st.integers(LIMIT - 4, LIMIT - 1), st.integers(0, LIMIT - 1)
)
_family = st.dictionaries(_indices, _exponents, max_size=6)
_refs = st.tuples(_family, _family)


def _clean_ref(ref):
    return tuple({i: e for i, e in fam.items() if e} for fam in ref)


def _build(ref):
    return Monomial(ref[0].items(), ref[1].items())


def _combine(op, a, b):
    return tuple(
        {i: op(x.get(i, 0), y.get(i, 0)) for i in set(x) | set(y)} for x, y in zip(a, b)
    )


def _ref_str(ref):
    ys, zs = _clean_ref(ref)
    parts = [
        f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}"
        for letter, fam in (("y", ys), ("z", zs))
        for i, e in sorted(fam.items())
    ]
    return "*".join(parts) or "1"


def _old_weight_key(ref):
    """The weight key of the sparse-tuple representation: (index, exponent)
    pairs from the highest index down, y before z."""
    ys, zs = _clean_ref(ref)
    return (tuple(sorted(ys.items()))[::-1], tuple(sorted(zs.items()))[::-1])


@settings(max_examples=300, deadline=None)
@given(_refs, _refs)
def test_packed_arithmetic_matches_the_dict_reference(a, b):
    ma, mb = _build(a), _build(b)
    ys, zs = _clean_ref(a)
    assert dict(ma.ys) == ys and dict(ma.zs) == zs
    assert [i for i, _ in ma.ys] == sorted(ys) and [i for i, _ in ma.zs] == sorted(zs)
    assert ma.degree == sum(ys.values()) + sum(zs.values())
    assert ma.max_index == max(list(ys) + list(zs), default=0)

    prod = _combine(int.__add__, a, b)
    if any(e >= LIMIT for fam in prod for e in fam.values()):
        with pytest.raises(ValueError):
            ma * mb
    else:
        assert ma * mb == _build(prod)
        assert (ma * mb).div(mb) == ma

    divides = all(e <= b[k].get(i, 0) for k in (0, 1) for i, e in a[k].items())
    assert ma.divides(mb) == divides
    if divides:
        assert mb.div(ma) == _build(_combine(int.__sub__, b, a))
    else:
        with pytest.raises(ValueError):
            mb.div(ma)
    assert _lcm(ma, mb) == _build(_combine(max, a, b))

    assert (ma == mb) == (_clean_ref(a) == _clean_ref(b))
    assert ma == Monomial(reversed(list(a[0].items())), reversed(list(a[1].items())))
    assert hash(ma) == hash(_build(_clean_ref(a)))

    assert str(ma) == _ref_str(a)
    assert parse_monomial(str(ma)) == ma

    old_a, old_b = _old_weight_key(a), _old_weight_key(b)
    assert (weight_key(ma) < weight_key(mb)) == (old_a < old_b)
    assert (ma < mb) == (old_a < old_b)
    assert (weight_key(ma) == weight_key(mb)) == (old_a == old_b)


@settings(max_examples=100, deadline=None)
@given(_refs, st.integers(1, 200), st.integers(LIMIT, 4 * LIMIT))
def test_exponents_from_two_to_the_31_are_rejected(ref, i, e):
    ys, zs = dict(ref[0]), dict(ref[1])
    ys[i] = e
    with pytest.raises(ValueError):
        Monomial(ys.items(), zs.items())
    with pytest.raises(ValueError):
        Monomial(zs.items(), ys.items())


def test_exponent_limit_in_products_and_repeated_indices():
    near = Monomial([(3, LIMIT - 1)], [(200, LIMIT - 1)])
    assert near * Monomial() == near
    with pytest.raises(ValueError):
        near * Monomial([(3, 1)], [])
    with pytest.raises(ValueError):
        near * Monomial([], [(200, 1)])
    # a repeated index adds its exponents, and the sum is checked
    assert Monomial([(2, 1), (2, 3)], []) == parse_monomial("y2^4")
    with pytest.raises(ValueError):
        Monomial([(2, LIMIT // 2), (2, LIMIT // 2)], [])


def test_cli_maps_the_exponent_limit_to_exit_code_3(capsys):
    assert main(["weight-cmp", "y1^2147483648*z1", "y1*z1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert main(["weight-cmp", "y1^2147483647*z1", "y1*z1"]) == 0
    assert capsys.readouterr().out == ">\n"


def test_indices_above_two_to_the_20_are_rejected_before_packing(capsys):
    assert Monomial([(1 << 20, 1)], []).max_index == 1 << 20
    for ys, zs in (([((1 << 20) + 1, 1)], []), ([], [(10**12, 1)])):
        with pytest.raises(ValueError):
            Monomial(ys, zs)
    assert main(["weight-cmp", "y1*z1000000000000", "y1*z1"]) == 3
    assert main(["normalize", "x1000000000000*x1"]) == 3
    assert capsys.readouterr().out == ""


def test_huge_indices_stay_sparse(capsys):
    """An index of 100000 packs into one int; nothing is kept per index."""
    tracemalloc.start()
    start = time.process_time()
    try:
        code = main(["normalize", "x100000*x1 + x99999*x2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 5
    assert peak < 32 * 2**20
    assert (code, capsys.readouterr().out) == (0, "y100000*z1 + y99999*z2\n")


def test_indices_and_exponents_are_ints_that_are_no_bools():
    """The constructor refuses what int() would coerce."""
    for ys in ([(1.5, 1)], [("2", 1)], [(True, 1)], [(2, 1.0)], [(2, "1")], [(2, True)]):
        with pytest.raises(ValueError):
            Monomial(ys, [(2, 1)])
        with pytest.raises(ValueError):
            Monomial([(2, 1)], ys)
    assert Monomial([(2, 1)], [(2, 1)]) == parse_monomial("y2*z2")
