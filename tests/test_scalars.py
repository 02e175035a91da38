"""Exact field arithmetic over the rationals and prime fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.errors import DivisionByZero, FieldMismatch, InvalidField
from bicomm.monomials import parse_monomial
from bicomm.polynomials import Poly
from bicomm.scalars import Field

SEED = 421


def test_parse_field_specs():
    assert Field.parse("q").is_rationals
    assert Field.parse("fp:7").characteristic == 7
    assert Field.parse(" fp:2 ").characteristic == 2
    for bad in ("", "f:3", "fp:", "fp:abc", "r"):
        with pytest.raises(InvalidField):
            Field.parse(bad)


def test_modulus_must_be_prime():
    for p in (2, 3, 5, 31, 65537):
        assert Field.prime(p).characteristic == p
    for n in (1, 4, 6, 9, 91):
        with pytest.raises(InvalidField):
            Field.prime(n)
    with pytest.raises(InvalidField):
        Field.prime(1 << 31)


def test_rationals_are_fractions():
    q = Field.rationals()
    a = q.parse_scalar("2/3")
    assert a == Fraction(2, 3)
    assert q.add(a, q.parse_scalar("1/3")) == 1
    assert q.div(q.one, q.from_int(4)) == Fraction(1, 4)
    assert q.format_scalar(Fraction(-5, 2)) == "-5/2"


def test_rational_inverse_of_a_plain_int_is_an_exact_fraction():
    q = Field.parse("q")
    for a in (3, -6, Fraction(3)):
        inv = q.inv(a)
        assert type(inv) is Fraction and inv * a == 1
    half = q.div(1, 2)
    assert type(half) is Fraction and half == Fraction(1, 2)
    m = parse_monomial("y1*z1")
    coeff = Poly(q, {m: 3}).monic().terms[m]
    assert type(coeff) is Fraction and coeff == 1


def test_prime_field_inverse_brute_force():
    """Every nonzero residue times its inverse is 1, checked directly."""
    for p in (2, 3, 5, 13):
        f = Field.prime(p)
        for a in range(1, p):
            inv = f.inv(a)
            assert f.mul(a, inv) == 1
            assert inv == next(b for b in range(1, p) if (a * b) % p == 1)


def test_field_ops_random_consistency():
    """Field axioms on random samples for both kinds of field."""
    rng = random.Random(SEED)
    fields = [Field.rationals(), Field.prime(5), Field.prime(13)]
    for f in fields:
        for _ in range(200):
            a = f.from_int(rng.randint(-20, 20))
            b = f.from_int(rng.randint(-20, 20))
            c = f.from_int(rng.randint(-20, 20))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.div(a, b), b) == a


def test_division_by_zero():
    for f in (Field.rationals(), Field.prime(3)):
        with pytest.raises(DivisionByZero):
            f.inv(f.zero)
        with pytest.raises(DivisionByZero):
            f.div(f.one, f.zero)


def test_parse_scalar_forms():
    f = Field.prime(7)
    assert f.parse_scalar("10") == 3
    assert f.parse_scalar("-1") == 6
    assert f.parse_scalar("+2") == 2
    assert f.parse_scalar("1/2") == f.div(1, 2)
    with pytest.raises(InvalidField):
        f.parse_scalar("1/-2")


def test_check_same_and_spec_string():
    q, f5 = Field.rationals(), Field.prime(5)
    q.check_same(Field.rationals())
    with pytest.raises(FieldMismatch):
        q.check_same(f5)
    assert q.spec_string() == "q"
    assert f5.spec_string() == "fp:5"
    assert Field.parse(f5.spec_string()) == f5


def test_rational_constants_are_ints():
    q = Field.parse("q")
    for value, n in ((q.zero, 0), (q.one, 1), (q.from_int(-7), -7), (q.parse_scalar("-7"), -7)):
        assert type(value) is int and value == n


_rationals = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6),
    st.integers(-50, 50).map(Fraction),  # integral values held as Fractions
)


@settings(max_examples=400, deadline=None)
@given(_rationals, _rationals, st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_ops_match_fraction_arithmetic(a, b, num, den):
    """Over Q every operation on int or Fraction operands gives an int or a
    Fraction equal to Fraction arithmetic, with the same str; ints give
    ints except through a quotient."""
    q = Field.rationals()
    fa, fb = Fraction(a), Fraction(b)
    cases = [(q.add(a, b), fa + fb), (q.sub(a, b), fa - fb), (q.mul(a, b), fa * fb),
             (q.neg(a), -fa)]
    integral = [type(a) is type(b) is int] * 3 + [type(a) is int]
    if b:
        cases += [(q.inv(b), 1 / fb), (q.div(a, b), fa / fb)]
        integral += [False, False]
    for text, want in ((str(a), fa), (f"{num}/{den}", Fraction(num, den)),
                       (f"- {abs(num)}", Fraction(-abs(num)))):
        cases.append((q.parse_scalar(text), want))
        integral.append("/" not in text)
    for (got, want), stays_int in zip(cases, integral):
        assert type(got) in (int, Fraction)
        assert got == want and str(got) == str(want)
        if stays_int:
            assert type(got) is int


def _add_into_reference(field, acc, pairs, coeff):
    """The per-term loop that Field.add_into replaces."""
    for key, c in pairs:
        v = field.add(acc.get(key, field.zero), field.mul(coeff, c))
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


def test_add_into_matches_the_per_term_loop():
    """Same sums as Field.add and Field.mul, every cancelled key deleted, and
    over Q the same int/Fraction type for every stored value."""
    rng = random.Random(SEED)
    fields = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(5)]
    for field in fields:
        p = field.characteristic

        def scalar():
            if p:
                return rng.randrange(p)
            if rng.random() < 0.4:
                return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            return rng.randint(-4, 4)

        for trial in range(400):
            keys = range(rng.randint(1, 6))
            acc = {k: v for k in keys if rng.random() < 0.6 and (v := scalar())}
            # repeated keys, and a value that cancels what acc holds
            pairs = [(rng.choice(keys), scalar()) for _ in range(rng.randint(0, 8))]
            coeff = rng.choice([0, 1, field.neg(1), scalar()])
            if acc and trial % 4 == 0:
                key = rng.choice(list(acc))
                coeff = coeff or 1
                pairs.append((key, field.neg(field.div(acc[key], coeff))))
            if trial % 7 == 0:  # full cancellation
                coeff, pairs = 1, [(k, field.neg(v)) for k, v in acc.items()]
            want = dict(acc)
            _add_into_reference(field, want, pairs, coeff)
            if coeff == 1 and trial % 2:
                field.add_into(acc, iter(pairs))
            else:
                field.add_into(acc, iter(pairs), coeff)
            assert acc == want and list(acc) == list(want)
            assert all(acc.values())
            assert [type(v) for v in acc.values()] == [type(v) for v in want.values()]
            if trial % 7 == 0:
                assert acc == {}


def test_add_into_with_coefficient_one_keeps_the_types_of_the_products():
    """coeff 1 sums c itself; a Fraction coefficient equal to 1 still
    multiplies, so over Q every stored value has the type of
    acc[key] + coeff * c."""
    rng = random.Random(SEED + 1)
    for field in (Field.rationals(), Field.prime(2), Field.prime(3)):
        p = field.characteristic
        for _ in range(300):
            def scalar():
                if p:
                    return rng.randrange(p)
                return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
            acc = {k: v for k in range(4) if (v := scalar())}
            pairs = [(rng.randrange(6), scalar()) for _ in range(rng.randint(0, 7))]
            for coeff in (1, Fraction(1)) if not p else (1,):
                want = dict(acc)
                for key, c in pairs:
                    v = want.get(key, 0) + coeff * c
                    v = v % p if p else v
                    if v:
                        want[key] = v
                    else:
                        want.pop(key, None)
                got = dict(acc)
                field.add_into(got, iter(pairs), coeff)
                assert got == want and list(got) == list(want)
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
