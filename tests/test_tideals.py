"""Substitution closures, weight lifting, and the basis search, checked
against sampled substitutions and hand-computed reductions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.algebra import BicommElement, normalize
from bicomm.errors import BadElement, NotDominated, UnsupportedGenerator, WindowTooSmall, WrongCharacteristic
from bicomm.linalg import Echelon
from bicomm.monomials import Monomial, parse_monomial
from bicomm.orders import higman_embedding, higman_leq, minimal_antichain, weight_key, weight_of
from bicomm.polynomials import Poly
from bicomm.terms import parse_expression
from bicomm.tideals import (
    ClosureWindow,
    Substitution,
    apply_substitution,
    char_zero_two_variable_heuristic,
    lift_weight,
    spanning_shift_multiples,
    specht_basis_search,
    specht_reduce,
    t_ideal_closure_bounded,
    t_ideal_member_bounded,
)

from conftest import QQ, F2, F3, element, quad_element, random_element, random_quad_element, random_scalar


def _commutator(field, i=1, j=2):
    return quad_element(field, (f"y{i}*z{j}", 1), (f"y{j}*z{i}", -1))


def _all_monomials(var_range, max_degree):
    slots = []
    for i in range(1, var_range + 1):
        slots.append(("y", i))
        slots.append(("z", i))
    out = []
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(slots, d):
            ys = [i for kind, i in combo if kind == "y"]
            zs = [i for kind, i in combo if kind == "z"]
            out.append(Monomial([(i, ys.count(i)) for i in set(ys)], [(i, zs.count(i)) for i in set(zs)]))
    return out


def test_substitution_is_an_algebra_endomorphism():
    rng = random.Random(501)
    for field in (QQ, F3):
        for _ in range(15):
            images = {
                1: random_element(rng, field, max_index=2, max_degree=2, terms=2),
                2: random_element(rng, field, max_index=2, max_degree=2, terms=2),
            }
            sigma = Substitution({i: v for i, v in images.items() if not v.is_zero})
            f = random_element(rng, field, max_index=2, max_degree=2, terms=2)
            g = random_element(rng, field, max_index=2, max_degree=2, terms=2)
            assert apply_substitution(f + g, sigma) == apply_substitution(f, sigma) + apply_substitution(g, sigma)
            assert apply_substitution(f.multiply(g), sigma) == apply_substitution(f, sigma).multiply(
                apply_substitution(g, sigma)
            )


def test_substitution_defaults_and_validation():
    f = element(QQ, lin={3: 2}, quad=[("y1*z3", 1)])
    assert apply_substitution(f, Substitution()) == f
    swap = Substitution({1: BicommElement.generator(QQ, 3), 3: BicommElement.generator(QQ, 1)})
    assert apply_substitution(f, swap) == element(QQ, lin={1: 2}, quad=[("y3*z1", 1)])
    with pytest.raises(ValueError):
        Substitution({1: BicommElement.zero(QQ)})
    with pytest.raises(ValueError):
        ClosureWindow(0, 2)
    with pytest.raises(ValueError):
        ClosureWindow(3, -1)


def test_closure_window_bounds_are_ints():
    """A window bound must be an int that is no bool: a float or a bool
    raises ValueError, as a bound below 1 does, instead of a bare
    TypeError inside the closure or a bound read as 1."""
    for bad in ((2.5, 2), (3, 2.0), (True, 2), (3, False), ("3", 2), (3, None)):
        with pytest.raises(ValueError, match="window bounds must be ints"):
            ClosureWindow(*bad)
    window = ClosureWindow(3, 2)
    assert (window.max_degree, window.max_variables) == (3, 2)


def test_substitution_accepts_only_positive_int_keys_and_element_images():
    """A key must be an int >= 1 that is no bool, so 1.9 and True do not
    silently replace x1; an image must be a BicommElement.  Anything else
    raises BadElement."""
    x3 = BicommElement.generator(QQ, 3)
    for bad in (1.9, 1.0, True, "a", "1", None, 0, -2):
        with pytest.raises(BadElement):
            Substitution({bad: x3})
    for bad in (5, "x3", None, quad_element(QQ, ("y1*z3", 1)).quad):
        with pytest.raises(BadElement):
            Substitution({1: bad})
    f = quad_element(QQ, ("y1*z2", 1))
    assert apply_substitution(f, Substitution({2: x3})) == quad_element(QQ, ("y1*z3", 1))


def test_commutator_closure_has_codimension_one_buckets():
    span = t_ideal_closure_bounded([_commutator(QQ)], ClosureWindow(4, 2))
    dims = span.dimensions()
    for key, dim in dims.items():
        mu = dict(key)
        total = sum(mu.values())
        if total == 1:
            assert dim == 0
            continue
        mixed = math.prod(e + 1 for e in mu.values()) - 2
        assert dim == mixed - 1, key
    key = tuple(sorted({1: 1, 2: 1}.items()))
    rows = span.component({1: 1, 2: 1})
    assert len(rows) == 1
    assert rows[0] == quad_element(QQ, ("y2*z1", 1), ("y1*z2", -1))


def test_square_generator_closure_and_polarization():
    sq = quad_element(QQ, ("y1*z1", 1))
    window = ClosureWindow(3, 2)
    polar = quad_element(QQ, ("y1*z2", 1), ("y2*z1", 1))
    assert t_ideal_member_bounded(polar, [sq], window)
    assert not t_ideal_member_bounded(_commutator(QQ), [sq], window)
    sq2 = quad_element(F2, ("y1*z1", 1))
    assert t_ideal_member_bounded(_commutator(F2), [sq2], window)


def test_closure_of_a_linear_generator_is_everything_in_window():
    window = ClosureWindow(3, 2)
    span = t_ideal_closure_bounded([BicommElement.generator(QQ, 1)], window)
    assert span.component({2: 1}) == [BicommElement.generator(QQ, 2)]
    assert len(span.component({1: 1, 2: 1})) == 2
    f = element(QQ, lin={1: 5}, quad=[("y1*z2", 3), ("y2*z1^2", 1)])
    assert t_ideal_member_bounded(f, [BicommElement.generator(QQ, 1)], window)


def _sampled_closure(rng, gens, window, rounds):
    """Per-bucket echelons built from random substitution images and
    in-window monomial multiples; every row is a genuine closure member."""
    field = gens[0].field
    buckets = {}

    def insert(part_key, poly):
        ech = buckets.setdefault(part_key, Echelon(field))
        ech.insert(dict(poly.terms))

    multipliers = _all_monomials(window.max_variables, window.max_degree)
    pool = [BicommElement.generator(field, i) for i in range(1, window.max_variables + 1)]
    pool += [
        BicommElement.from_quad(Poly(field, {m: field.one}))
        for m in _all_monomials(window.max_variables, 3)
        if m.is_mixed
    ]
    for _ in range(rounds):
        images = {}
        for v in range(1, window.max_variables + 2):
            img = BicommElement.zero(field)
            for p in rng.sample(pool, rng.randint(1, 3)):
                img = img.add_scaled(random_scalar(rng, field, nonzero=True), p)
            if not img.is_zero:
                images[v] = img
        sigma = Substitution(images)
        for g in gens:
            out = apply_substitution(g, sigma)
            pieces = []
            for key, part in out.split_multihomogeneous().items():
                if part.lin:
                    continue
                pieces.append(part.quad)
            for quad in pieces:
                for m in itertools.chain([Monomial()], multipliers):
                    shifted = quad.mul_monomial(m)
                    combined = BicommElement.from_quad(shifted)
                    if combined.degree() > window.max_degree or combined.max_index() > window.max_variables:
                        continue
                    for key, part in combined.split_multihomogeneous().items():
                        insert(key, part.quad)
    return buckets


def test_closure_buckets_match_sampled_substitutions():
    rng = random.Random(502)
    window = ClosureWindow(4, 2)
    gens = [_commutator(QQ)]
    span = t_ideal_closure_bounded(gens, window)
    sampled = _sampled_closure(rng, gens, window, rounds=25)
    computed = {}
    for key, dim in span.dimensions().items():
        ech = Echelon(QQ)
        for row in span.component(dict(key)):
            ech.insert(dict(row.quad.terms))
        computed[key] = ech
    # every sampled element lies in the computed span
    for key, ech in sampled.items():
        assert key in computed
        for _, vec, _ in ech.rows:
            assert computed[key].contains(dict(vec)), key
    # and sampling reaches the computed rank in every bucket
    for key, ech in computed.items():
        if ech.rank == 0:
            continue
        got = sampled.get(key)
        assert got is not None and got.rank == ech.rank, key


def test_membership_window_validation():
    window = ClosureWindow(3, 2)
    big = quad_element(QQ, ("y1^3*z1^2", 1))
    with pytest.raises(WindowTooSmall):
        t_ideal_member_bounded(big, [_commutator(QQ)], window)
    wide = quad_element(QQ, ("y3*z1", 1))
    with pytest.raises(WindowTooSmall):
        t_ideal_member_bounded(wide, [_commutator(QQ)], window)
    with pytest.raises(WindowTooSmall):
        t_ideal_member_bounded(_commutator(QQ), [big], window)


def test_lift_weight_worked_example():
    g = quad_element(QQ, ("y1*z1", 1), ("y1*z2", -1))
    target = parse_monomial("y1*y2*z2*z3")
    lifted = lift_weight(g, target)
    assert lifted == quad_element(QQ, ("y1*y2*z1*z3", 1), ("y1*y2*z2*z3", -1))
    assert weight_of(lifted) == (target, QQ.from_int(-1))


def test_lift_weight_keeps_weight_and_closure_membership():
    rng = random.Random(503)
    window = ClosureWindow(5, 3)
    for _ in range(12):
        f = quad_element(
            QQ,
            (str(random.Random(rng.random()).choice(["y1*z1", "y1*z2", "y2*z1", "y1^2*z1"])), 1),
            ("y1*z1^2", rng.randrange(-2, 3)),
        )
        wt, nu = weight_of(f)
        targets = [m for m in _all_monomials(3, 4) if m.is_mixed and higman_leq(wt, m)]
        if not targets:
            continue
        target = rng.choice(targets)
        lifted = lift_weight(f, target)
        assert weight_of(lifted) == (target, nu)
        if lifted.degree() <= window.max_degree and lifted.max_index() <= window.max_variables:
            assert t_ideal_member_bounded(lifted, [f], window)


def test_lift_weight_with_a_linear_part():
    f = element(QQ, lin={1: 1}, quad=[("y1*z1", 1)])
    lifted = lift_weight(f, parse_monomial("y1^2*z1"))
    assert lifted == quad_element(QQ, ("y1*z1", 1), ("y1^2*z1", 1))


def _lift_by_generators(f, target):
    """Reference lift: relabel along the greedy embedding, then multiply
    by x_k on the left per y_k and on the right per z_k of the quotient."""
    wt, _ = weight_of(f)
    phi = higman_embedding(wt, target)
    total, prev = {}, 0
    for i in sorted(f.indices()):
        prev = total[i] = phi.get(i, prev + 1)
    h = f.apply_index_map(total)
    q = target.div(wt.apply_index_map({i: phi[i] for i in range(1, wt.max_index + 1)}))
    for k, e in q.ys:
        for _ in range(e):
            h = BicommElement.generator(f.field, k) * h
    for k, e in q.zs:
        for _ in range(e):
            h = h * BicommElement.generator(f.field, k)
    return h


_exponents = st.dictionaries(st.integers(1, 3), st.integers(1, 2), min_size=1, max_size=2)


@st.composite
def _lift_cases(draw):
    """An element with an optional linear part, and a target wt(f) * q with
    the quotient q equal to 1, y-only, z-only or mixed."""
    field = draw(st.sampled_from([QQ, F2, F3]))
    quad = {}
    for ys, zs, c in draw(st.lists(st.tuples(_exponents, _exponents, st.integers(-4, 4)),
                                   min_size=1, max_size=4)):
        quad[Monomial(ys.items(), zs.items())] = field.from_int(c) or field.one
    lin = draw(st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=2))
    lin = {i: field.from_int(c) for i, c in lin.items()}
    f = BicommElement(field, lin, Poly(field, quad))
    kind = draw(st.sampled_from(["1", "y", "z", "yz"]))
    ys = draw(_exponents) if "y" in kind else {}
    zs = draw(_exponents) if "z" in kind else {}
    return f, weight_of(f)[0] * Monomial(ys.items(), zs.items())


@settings(max_examples=300, deadline=None)
@given(_lift_cases())
def test_lift_weight_matches_the_generator_multiplications(case):
    f, target = case
    expected = _lift_by_generators(f, target)
    if weight_of(expected)[0] != target:
        # a linear term times q outranks the target: lift_weight refuses it
        with pytest.raises(UnsupportedGenerator, match="linear term x"):
            lift_weight(f, target)
    else:
        assert lift_weight(f, target) == expected


def test_lift_weight_refuses_a_linear_term_that_outranks_the_target():
    # wt(f) = y1*z1 and q = z1, so t(f)*z1 = y1*z1^2 + y2*z1, whose weight
    # y2*z1 comes from the linear term x2
    f = element(QQ, lin={2: 1}, quad=[("y1*z1", 1)])
    target = parse_monomial("y1*z1^2")
    assert weight_of(_lift_by_generators(f, target))[0] == parse_monomial("y2*z1")
    with pytest.raises(UnsupportedGenerator, match=r"linear term x2 .* y2\*z1"):
        lift_weight(f, target)


def test_lift_weight_rejects_non_dominated_targets():
    g = quad_element(QQ, ("y2*z1", 1))
    with pytest.raises(NotDominated):
        lift_weight(g, parse_monomial("y1*z1^3"))


def _lift_by_composition(f, target):
    """Reference lift through the public, validating operations: relabel
    with apply_index_map along the greedy embedding extended to f's
    indices, then multiply s(h) or t(h) by the quotient with
    mul_monomial."""
    wt, _ = weight_of(f)
    phi = higman_embedding(wt, target)
    if phi is None:
        raise NotDominated(f"{wt} does not embed into {target}")
    total, prev = {}, 0
    for i in sorted(f.indices()):
        prev = total[i] = phi.get(i, prev + 1)
    h = f.apply_index_map(total)
    q = target.div(wt.apply_index_map({i: phi[i] for i in range(1, wt.max_index + 1)}))
    if q.ys:
        h = BicommElement.from_quad(h.s_poly().mul_monomial(q))
    elif q.zs:
        h = BicommElement.from_quad(h.t_poly().mul_monomial(q))
    w = weight_of(h)[0]
    if w != target:
        k = w.div(q).max_index
        i = next(i for i, v in total.items() if v == k)
        raise UnsupportedGenerator(
            f"linear term x{i} of the generator lifts to {w}, which outranks the target {target}"
        )
    return h


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotDominated, UnsupportedGenerator) as exc:
        return type(exc), str(exc)


@st.composite
def _packed_lift_cases(draw):
    """Elements with and without linear terms, some at indices above every
    quadratic one, and targets that wt(f) embeds into by a relabeling
    (some spread to indices 5..8), or random mixed monomials."""
    field = draw(st.sampled_from([QQ, F2, F3]))
    quad = {}
    for ys, zs, c in draw(st.lists(st.tuples(_exponents, _exponents, st.integers(-4, 4)),
                                   min_size=1, max_size=4)):
        quad[Monomial(ys.items(), zs.items())] = field.from_int(c) or field.one
    lin = draw(st.dictionaries(st.integers(1, 6), st.integers(1, 4), max_size=3))
    f = BicommElement(field, {i: field.from_int(c) for i, c in lin.items()}, Poly(field, quad))
    wt = weight_of(f)[0]
    kind = draw(st.sampled_from(["spread", "z only", "random"]))
    if kind == "random":
        return f, Monomial(draw(_exponents).items(), draw(_exponents).items())
    image = sorted(draw(st.sets(st.integers(1, 8), min_size=wt.max_index, max_size=wt.max_index)))
    spread = wt.apply_index_map(dict(zip(range(1, wt.max_index + 1), image)))
    # a quotient with no y factor turns a linear term x_i into y_i q
    ys = {} if kind == "z only" else draw(st.dictionaries(st.integers(1, 8), st.integers(0, 2), max_size=2))
    zs = draw(st.dictionaries(st.integers(1, 8), st.integers(0, 2), max_size=2))
    return f, spread * Monomial(ys.items(), zs.items())


@settings(max_examples=400, deadline=None)
@given(_packed_lift_cases())
def test_packed_lift_weight_matches_the_composition_of_public_operations(case):
    f, target = case
    want = _outcome(_lift_by_composition, f, target)
    got = _outcome(lift_weight, f, target)
    assert got == want
    if isinstance(got, BicommElement):
        assert str(got) == str(want) and weight_of(got)[0] == target


def test_lift_weight_refuses_an_exponent_past_the_guard_bit():
    # q = y1^(2^30) lifts the weight y2*z1 to the target, and the other
    # term y1^(2^30)*z1 to y1^(2^31)*z1, which no monomial holds
    big = 1 << 30
    f = BicommElement.from_quad(Poly(QQ, {Monomial([(1, big)], [(1, 1)]): 1, parse_monomial("y2*z1"): 1}))
    target = Monomial([(1, big), (2, 1)], [(1, 1)])
    for lift in (lift_weight, _lift_by_composition):
        with pytest.raises(ValueError, match="2\\^31"):
            lift(f, target)


def test_lift_weight_refuses_an_index_past_the_bound():
    # the weight y2*z1 embeds into the target at indices 2^20 - 1 and 2^20,
    # so the other term y1*z3 relabels to y_(2^20 - 1)*z_(2^20 + 1)
    top = 1 << 20
    f = quad_element(QQ, ("y2*z1", 1), ("y1*z3", 1))
    target = Monomial([(top, 1)], [(top - 1, 1)])
    for lift in (lift_weight, _lift_by_composition):
        with pytest.raises(ValueError, match=f"at most 2\\^20, got {top + 1}$"):
            lift(f, target)


def test_specht_reduce_trace_and_remainder():
    g = quad_element(QQ, ("y1*y2*z2*z3", 1))
    basis = [quad_element(QQ, ("y1*z1", 1), ("y1*z2", -1))]
    trace = []
    r = specht_reduce(g, basis, trace)
    assert trace == [
        parse_monomial("y1*y2*z2*z3"),
        parse_monomial("y1*y2*z1*z3"),
        parse_monomial("y1*y2*z1^2"),
    ]
    assert r == quad_element(QQ, ("y1*y2*z1^2", 1))
    keys = [weight_key(w) for w in trace]
    assert keys == sorted(keys, reverse=True)


def test_specht_reduce_properties():
    rng = random.Random(504)
    basis = [_commutator(QQ)]
    window = ClosureWindow(4, 2)
    for _ in range(10):
        g = quad_element(
            QQ,
            ("y1*y2*z1*z2", rng.randrange(-3, 4)),
            ("y2^2*z1*z2", rng.randrange(-3, 4)),
            ("y1*z2", rng.randrange(-3, 4)),
        )
        trace = []
        r = specht_reduce(g, basis, trace)
        keys = [weight_key(w) for w in trace]
        assert keys == sorted(keys, reverse=True)
        if not r.quad.is_zero:
            wr = weight_of(r)[0]
            assert not any(higman_leq(weight_of(b)[0], wr) for b in basis)
        diff = g.add_scaled(QQ.from_int(-1), r)
        assert t_ideal_member_bounded(diff, basis, window)
    zero = BicommElement.zero(QQ)
    trace = []
    assert specht_reduce(zero, basis, trace) == zero
    assert trace == []
    keeps_lin = element(QQ, lin={1: 1}, quad=[("y1^2*z1", 1)])
    r = specht_reduce(keeps_lin, [quad_element(QQ, ("y1*z1", 1))])
    assert r == element(QQ, lin={1: 1})


def _reference_reduce(g, basis, trace):
    """specht_reduce from the public pieces: the first basis element whose
    weight embeds (higman_leq) is lifted with lift_weight, which finds the
    embedding again, and subtracted with the field's ratio of the leads."""
    field = g.field
    work = g
    while not work.quad.is_zero:
        w, nu = weight_of(work)
        trace.append(w)
        chosen = next((b for b in basis if not b.quad.is_zero and higman_leq(weight_of(b)[0], w)), None)
        if chosen is None:
            break
        h = lift_weight(chosen, w)
        work = work.add_scaled(field.neg(field.div(nu, weight_of(h)[1])), h)
    return work


def test_specht_reduce_matches_a_reduction_through_the_public_lift():
    """Same trace and remainder, printed alike, or the same error and text,
    as the reference, over Q (some leads Fractions), F2 and F3, with bases
    whose linear terms make some lifts raise UnsupportedGenerator."""
    rng = random.Random(523)
    refused = 0
    for field in (QQ, F2, F3):
        for _ in range(60):
            basis = [random_element(rng, field, max_index=2, max_degree=3, terms=2)
                     for _ in range(rng.randint(1, 3))]
            if field.is_rationals and rng.random() < 0.3:
                basis[0] = basis[0].scale(Fraction(rng.choice([1, -3]), rng.choice([2, 3])))
            g = random_quad_element(rng, field, max_index=4, max_degree=6, terms=4)
            want_trace, got_trace = [], []
            want = _outcome(_reference_reduce, g, basis, want_trace)
            got = _outcome(specht_reduce, g, basis, got_trace)
            assert got == want and got_trace == want_trace
            if isinstance(got, BicommElement):
                assert str(got) == str(want)
            else:
                assert got[0] is UnsupportedGenerator and got[1].startswith("linear term x")
                refused += 1
    assert refused
    g = quad_element(QQ, ("y2*z1", 1))
    assert _outcome(lift_weight, g, parse_monomial("y1*z1^3")) == (
        NotDominated, "y2*z1 does not embed into y1*z1^3")


def test_search_over_q_keeps_int_coefficients_where_the_leads_divide():
    """The second generator reduces by the commutator with the lead ratio
    2 / -1; the kept remainder holds ints and prints as before."""
    comm = _commutator(QQ)
    g = quad_element(QQ, ("y2*z1", 2), ("y1*z2", -1), ("y1*z1", 1))
    found = specht_basis_search([comm, g], ClosureWindow(4, 2))
    assert [str(b) for b in found.basis] == ["-y2*z1 + y1*z2", "y1*z2 + y1*z1"]
    assert all(type(c) is int for b in found.basis for c in b.quad.terms.values())


def test_spanning_shift_multiples_contents():
    g = _commutator(QQ)
    out = spanning_shift_multiples([g], ClosureWindow(3, 2))
    multipliers = [Monomial()] + _all_monomials(2, 1)
    expected = sorted(str(g.quad.mul_monomial(m)) for m in multipliers)
    assert sorted(str(v.quad) for v in out) == expected
    tight = spanning_shift_multiples([g], ClosureWindow(2, 3))
    shifts = [(1, 2), (1, 3), (2, 3)]
    assert sorted(str(v.quad) for v in tight) == sorted(
        str(g.apply_index_map({1: a, 2: b}).quad) for a, b in shifts
    )


def test_spanning_shift_multiples_errors():
    with pytest.raises(UnsupportedGenerator):
        spanning_shift_multiples([element(QQ, lin={1: 1}, quad=[("y1*z1", 1)])], ClosureWindow(3, 2))
    with pytest.raises(WindowTooSmall):
        spanning_shift_multiples([quad_element(QQ, ("y1^2*z1^2", 1))], ClosureWindow(3, 2))
    with pytest.raises(WindowTooSmall):
        spanning_shift_multiples([quad_element(QQ, ("y1*y2*z3", 1))], ClosureWindow(4, 2))


def test_specht_basis_search_single_generators():
    comm = _commutator(QQ)
    found = specht_basis_search([comm], ClosureWindow(4, 2))
    assert found.basis == [comm]
    assert found.antichain == [parse_monomial("y2*z1")]
    assert found.verified
    sq = quad_element(QQ, ("y1*z1", 1))
    found = specht_basis_search([sq], ClosureWindow(4, 2))
    assert found.basis == [sq]
    assert found.antichain == [parse_monomial("y1*z1")]
    assert found.verified
    assert specht_basis_search([], ClosureWindow(3, 2)).verified


def test_specht_basis_search_relabels_generators_onto_x1():
    # a generator on other variables has the T-ideal of its relabeling
    # onto x1..xk, so it gets the same verdict and the relabeled basis
    sq = quad_element(QQ, ("y1*z1", 1))
    for window in (ClosureWindow(4, 2), ClosureWindow(4, 3)):
        for i in (2, 3):
            found = specht_basis_search([quad_element(QQ, (f"y{i}*z{i}", 1))], window)
            assert found.basis == [sq]
            assert found.antichain == [parse_monomial("y1*z1")]
            assert found.verified
        found = specht_basis_search([_commutator(QQ, 2, 3)], window)
        assert found.basis == [_commutator(QQ)]
        assert found.verified


def test_specht_basis_search_drops_redundant_generators():
    comm = _commutator(QQ)
    x1 = BicommElement.generator(QQ, 1)
    extra = x1.multiply(comm)
    found = specht_basis_search([comm, extra], ClosureWindow(4, 2))
    assert found.basis == [comm]
    assert found.verified


def test_search_verdict_matches_reducing_every_spanning_element():
    """The verdict, decided on the spanning multiples that enlarge the
    span, equals the rule that asks every closure pivot to dominate a kept
    weight and every spanning multiple to reduce to zero."""
    rng = random.Random(519)
    unverified = 0
    for field in (QQ, F2, F3):
        for _ in range(15):
            g = random_quad_element(rng, field, max_index=2, max_degree=3, terms=3)
            window = ClosureWindow(rng.randint(3, 4), rng.randint(2, 3))
            found = specht_basis_search([g], window)
            relabeled = [g.apply_index_map({i: n for n, i in enumerate(sorted(g.indices()), 1)})]
            spanning = spanning_shift_multiples(relabeled, window)
            ech = Echelon(field)
            for v in spanning:
                ech.insert(dict(v.quad.terms))
            pivots = ech.pivots()
            weights = [weight_of(b)[0] for b in found.basis]
            covered = all(any(higman_leq(w, p) for w in weights) for p in pivots)
            old = covered and all(specht_reduce(v, found.basis).is_zero for v in spanning)
            assert found.verified == old, (g, window)
            assert found.antichain == minimal_antichain(pivots)
            unverified += not old
    assert unverified


def test_verified_search_means_sampled_combinations_reduce_to_zero():
    rng = random.Random(505)
    comm = _commutator(QQ)
    window = ClosureWindow(4, 2)
    found = specht_basis_search([comm], window)
    assert found.verified
    spanning = spanning_shift_multiples([comm], window)
    for _ in range(20):
        total = BicommElement.zero(QQ)
        for v in rng.sample(spanning, 3):
            total = total.add_scaled(random_scalar(rng, QQ, nonzero=True), v)
        assert specht_reduce(total, found.basis).is_zero


def test_two_variable_heuristic():
    with pytest.raises(WrongCharacteristic):
        char_zero_two_variable_heuristic([_commutator(F2)])
    comm = _commutator(QQ)
    assert char_zero_two_variable_heuristic([comm]) == [comm]
    wide = _commutator(QQ, 1, 3)
    out = char_zero_two_variable_heuristic([wide])
    assert len(out) == 1
    assert out[0].max_index() <= 2
    window = ClosureWindow(4, 2)
    assert (
        t_ideal_closure_bounded([wide], window).dimensions()
        == t_ideal_closure_bounded(out, window).dimensions()
    )
    assert char_zero_two_variable_heuristic([]) == []


def _linearized_closure(sympy, g, window, field, domain):
    """Per-multidegree echelons of the bounded closure of g, computed with
    sympy: expand g under x_v -> sum_k c_{v,k} b_k over the basis monomials
    b_k, take the coefficient of every c-monomial, and multiply it by every
    monomial that fills it up to an in-window multidegree."""
    n = window.max_variables
    ys = sympy.symbols(f"y1:{n + 1}")
    zs = sympy.symbols(f"z1:{n + 1}")

    def power_product(m):
        out = sympy.Integer(1)
        for i, e in m.ys:
            out *= ys[i - 1] ** e
        for i, e in m.zs:
            out *= zs[i - 1] ** e
        return out

    # (t(b_k), s(b_k)); a single b_k of degree above room leaves the window
    room = window.max_degree - min(m.degree for m in g.quad.terms) + 1
    images = [(ys[i], zs[i]) for i in range(n)]
    images += [(power_product(m),) * 2 for m in _all_monomials(n, room) if m.is_mixed]
    variables = sorted(g.indices())
    cs = {v: sympy.symbols(f"c{v}_0:{len(images)}") for v in variables}
    gens = [c for v in variables for c in cs[v]] + list(ys) + list(zs)

    def poly(expr):
        return sympy.Poly(expr, *gens, domain=domain)

    t_sum = {v: poly(sum(c * t for c, (t, _) in zip(cs[v], images))) for v in variables}
    s_sum = {v: poly(sum(c * s for c, (_, s) in zip(cs[v], images))) for v in variables}
    expanded = poly(0)
    for m, c in g.quad.terms.items():
        scalar = sympy.Rational(c.numerator, c.denominator) if field.is_rationals else c
        term = poly(scalar)
        for i, e in m.ys:
            term *= t_sum[i] ** e
        for i, e in m.zs:
            term *= s_sum[i] ** e
        expanded += term
    ncs = len(gens) - 2 * n
    coefficients = {}
    for exps, c in expanded.terms():
        a, b = exps[ncs:ncs + n], exps[ncs + n:]
        mono = Monomial([(i + 1, e) for i, e in enumerate(a)], [(i + 1, e) for i, e in enumerate(b)])
        r = sympy.Rational(c)
        value = field.div(field.from_int(int(r.p)), field.from_int(int(r.q)))
        coefficients.setdefault(exps[:ncs], {})[mono] = value
    buckets = {}
    multipliers = [Monomial()] + _all_monomials(n, window.max_degree)
    for vec in coefficients.values():
        for mult in multipliers:
            shifted = {m * mult: c for m, c in vec.items() if c}
            if not shifted:
                continue
            (top,) = {m.multidegree() for m in shifted}
            if sum(d for _, d in top) <= window.max_degree:
                ech = buckets.setdefault(top, Echelon(field))
                ech.insert(shifted)
    return buckets


def test_closure_equals_a_sympy_linearization_in_every_characteristic():
    """Every bucket of the bounded closure spans exactly what a sympy
    expansion of the generic substitution gives, over Q, GF(2) and GF(3)."""
    sympy = pytest.importorskip("sympy")
    commutator = "(x1*x2) - (x2*x1)"
    associator = "(x1*x2)*x3 - x1*(x2*x3)"
    cases = [
        (commutator, (3, 2)),
        (commutator, (4, 2)),
        ("x1*x1", (3, 2)),
        ("x1*x1", (4, 2)),
        (associator, (3, 2)),
        (associator, (4, 2)),
    ]
    for field, domain in ((QQ, sympy.QQ), (F2, sympy.GF(2)), (F3, sympy.GF(3))):
        for text, bounds in cases:
            g = normalize(parse_expression(text, field))
            window = ClosureWindow(*bounds)
            oracle = _linearized_closure(sympy, g, window, field, domain)
            span = t_ideal_closure_bounded([g], window)
            for key in span.buckets:
                if sum(d for _, d in key) == 1:
                    assert span.component(dict(key)) == []
                    continue
                rows = [dict(r.quad.terms) for r in span.component(dict(key))]
                want = oracle.get(key, Echelon(field))
                assert len(rows) == want.rank, (text, bounds, field.characteristic, key)
                assert all(want.contains(r) for r in rows), (text, bounds, field.characteristic, key)
            assert set(oracle) <= set(span.buckets)
