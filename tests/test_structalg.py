"""Structure-constant algebras, evaluation, and identity checking,
compared against a polynomial model of the truncated derivation algebra
and against the normal form of the free algebra itself."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bicomm.algebra import BicommElement, normalize
from bicomm.cli import main
from bicomm.errors import BadAlgebra, BadElement, FieldMismatch, NotMultilinear
from bicomm.monomials import Monomial
from bicomm.polynomials import Poly
from bicomm.structalg import (
    BicommVerdict,
    CheckResult,
    StructureAlgebra,
    check_bicommutative,
    check_identity,
    evaluate_polynomial,
    format_witness,
    left_commutativity,
    right_commutativity,
    witt_truncated,
)
from bicomm.terms import Leaf, NAPolynomial, Node

from conftest import QQ, F2, F3, F5, random_scalar


def _poly_product_oracle(n, field, i, j):
    """Coefficients of (x^j * d(x^i)/dx) in the basis x^0 .. x^{n-1}."""
    out = [field.zero] * n
    if i >= 1 and 0 <= i + j - 1 < n:
        out[i + j - 1] = field.from_int(i)
    return out


def test_witt_table_matches_the_derivation_model():
    for field in (QQ, F3):
        for n in (1, 2, 3, 5):
            alg = witt_truncated(n, field)
            for i in range(n):
                for j in range(n):
                    expected = _poly_product_oracle(n, field, i, j)
                    row = alg.table.get((i, j))
                    if row is None:
                        assert not any(expected), (n, i, j)
                    else:
                        assert list(row) == expected, (n, i, j)


def test_witt_small_examples():
    assert witt_truncated(1, QQ).table == {}
    w2 = witt_truncated(2, QQ)
    assert w2.product({1: QQ.one}, {0: QQ.one}) == {0: QQ.one}
    assert w2.product({1: QQ.one}, {1: QQ.one}) == {1: QQ.one}
    assert w2.product({0: QQ.one}, {1: QQ.one}) == {}
    w3 = witt_truncated(3, QQ)
    assert w3.product({1: QQ.one}, {2: QQ.one}) == {2: QQ.one}
    assert w3.product({2: QQ.one}, {2: QQ.one}) == {}
    assert w3.product({2: QQ.one}, {1: QQ.one}) == {2: QQ.from_int(2)}
    with pytest.raises(ValueError):
        witt_truncated(0, QQ)


def test_structure_algebra_validation():
    with pytest.raises(ValueError):
        StructureAlgebra(0, QQ)
    with pytest.raises(BadElement):
        StructureAlgebra(2, QQ, {(0, 2): [QQ.one, QQ.zero]})
    with pytest.raises(BadElement):
        StructureAlgebra(2, QQ, {(0, 0): [QQ.one]})
    alg = StructureAlgebra(2, QQ)
    with pytest.raises(BadElement):
        alg.basis_element(2)
    with pytest.raises(BadElement):
        alg.check_element({3: QQ.one})
    assert alg.check_element({0: QQ.zero, 1: QQ.one}) == {1: QQ.one}
    assert alg.product({0: QQ.one}, {1: QQ.one}) == {}


def test_elements_store_canonical_coordinates_at_integer_indices():
    """check_element reads an index only as an int or a digit string, and
    stores each coordinate through Field.canonical; a float or a boolean
    raises BadElement instead of being truncated or carried into the
    arithmetic."""
    w3 = witt_truncated(3, QQ)
    x1x2 = NAPolynomial.term(QQ, Node(Leaf(1), Leaf(2)))
    assert evaluate_polynomial(x1x2, [{1: 1}, {1: 1}], w3) == {1: 1}
    assert evaluate_polynomial(x1x2, [{"1": 1}, {1: Fraction(1, 2)}], w3) == {1: Fraction(1, 2)}
    with pytest.raises(BadElement):
        evaluate_polynomial(x1x2, [{1: 0.5}, {1: 1}], w3)
    for bad in (1.9, 1.0, True, "x1", None, (1,)):
        with pytest.raises(BadElement):
            w3.check_element({bad: QQ.one})
    for bad in (0.5, 1.0, True, "1", None):
        with pytest.raises(BadElement):
            w3.check_element({1: bad})
    f3 = witt_truncated(3, F3)
    assert f3.check_element({0: 3, 1: 4, "2": -1}) == {1: 1, 2: 2}
    assert f3.check_element({0: Fraction(1, 2)}) == {0: 2}


def test_evaluate_polynomial_reads_dict_keys_by_the_index_rule():
    """A dict key of evaluate_polynomial is read like a coordinate index of
    check_element, an int that is no bool or a string of digits, and must
    be at least 1; a float or a boolean is not truncated or coerced onto
    x1, and every other key raises BadElement."""
    w3 = witt_truncated(3, QQ)
    x1x2 = NAPolynomial.term(QQ, Node(Leaf(1), Leaf(2)))
    assert evaluate_polynomial(x1x2, {"1": {1: 1}, 2: {1: 1}}, w3) == {1: 1}
    assert evaluate_polynomial(x1x2, {1: {1: 1}, "2": {1: 1}}, w3) == {1: 1}
    for bad in (1.9, 1.0, True, False, "a", None, (1,), 0, -2, "0", "-1"):
        with pytest.raises(BadElement):
            evaluate_polynomial(x1x2, {bad: {1: 1}, 2: {1: 1}}, w3)


def test_product_is_bilinear():
    rng = random.Random(601)
    for field in (QQ, F5):
        alg = witt_truncated(4, field)

        def rand_vec():
            return {i: c for i in range(4) if (c := random_scalar(rng, field))}

        def add(u, v):
            out = dict(u)
            for i, c in v.items():
                s = field.add(out.get(i, field.zero), c)
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
            return out

        for _ in range(25):
            u, v, w = rand_vec(), rand_vec(), rand_vec()
            left = alg.product(add(u, v), w)
            right = add(alg.product(u, w), alg.product(v, w))
            assert left == right
            left = alg.product(u, add(v, w))
            right = add(alg.product(u, v), alg.product(u, w))
            assert left == right


def test_evaluate_polynomial_positional_and_named():
    w3 = witt_truncated(3, QQ)
    f = NAPolynomial.term(QQ, Node(Leaf(1), Leaf(2)))
    assert evaluate_polynomial(f, [{1: QQ.one}, {2: QQ.one}], w3) == {2: QQ.one}
    assert evaluate_polynomial(f, {1: {1: QQ.one}, 2: {2: QQ.one}}, w3) == {2: QQ.one}
    nested = NAPolynomial.term(QQ, Node(Node(Leaf(1), Leaf(1)), Leaf(2)))
    assert evaluate_polynomial(nested, [{1: QQ.one}, {0: QQ.one}], w3) == {0: QQ.one}
    combo = f.scale(QQ.from_int(3)).sub(f)
    assert evaluate_polynomial(combo, [{1: QQ.one}, {2: QQ.one}], w3) == {2: QQ.from_int(2)}
    with pytest.raises(FieldMismatch):
        evaluate_polynomial(NAPolynomial.term(F2, Leaf(1)), [{0: F2.one}], w3)


def test_multilinear_check_on_the_truncated_derivation_algebra():
    w3 = witt_truncated(3, QQ)
    left = check_identity(left_commutativity(QQ), w3)
    assert left.holds and left.witness is None
    right = check_identity(right_commutativity(QQ), w3)
    assert not right.holds
    assert right.witness == (1, 0, 1)
    verdict = check_bicommutative(w3)
    assert not verdict.holds
    assert verdict.left.holds
    assert verdict.witness == (1, 0, 1)
    assert check_bicommutative(witt_truncated(1, QQ)).holds


def test_witness_is_a_genuine_violation():
    w3 = witt_truncated(3, QQ)
    f = right_commutativity(QQ)
    i, j, k = check_identity(f, w3).witness
    args = [w3.basis_element(i), w3.basis_element(j), w3.basis_element(k)]
    assert evaluate_polynomial(f, args, w3)
    # everything lexicographically earlier evaluates to zero
    for a in range(w3.dim):
        for b in range(w3.dim):
            for c in range(w3.dim):
                if (a, b, c) >= (i, j, k):
                    break
                args = [w3.basis_element(a), w3.basis_element(b), w3.basis_element(c)]
                assert not evaluate_polynomial(f, args, w3)


def test_multilinear_check_rejects_other_shapes():
    w2 = witt_truncated(2, QQ)
    square = NAPolynomial.term(QQ, Node(Leaf(1), Leaf(1)))
    with pytest.raises(NotMultilinear):
        check_identity(square, w2)
    mixed = NAPolynomial.term(QQ, Node(Leaf(1), Leaf(2))).add(NAPolynomial.term(QQ, Leaf(1)))
    with pytest.raises(NotMultilinear):
        check_identity(mixed, w2)
    with pytest.raises(ValueError):
        check_identity(left_commutativity(QQ), w2, mode="guess")


def test_symbolic_mode_sees_through_small_fields():
    # over F2 the polynomial x*x - x vanishes at both points of the
    # one-dimensional algebra with e0*e0 = e0, yet it is not an identity
    # of any scalar extension
    alg = StructureAlgebra(1, F2, {(0, 0): [F2.one]})
    f = NAPolynomial.term(F2, Node(Leaf(1), Leaf(1))).sub(NAPolynomial.term(F2, Leaf(1)))
    sampled = check_identity(f, alg, mode="sample", samples=64, seed=3)
    assert sampled.holds
    symbolic = check_identity(f, alg, mode="symbolic")
    assert not symbolic.holds
    assert symbolic.witness is None
    assert check_identity(left_commutativity(QQ), witt_truncated(3, QQ), mode="symbolic").holds
    assert not check_identity(right_commutativity(QQ), witt_truncated(3, QQ), mode="symbolic").holds


def test_sample_mode_is_seeded_and_witnesses_replay():
    w3 = witt_truncated(3, QQ)
    f = right_commutativity(QQ)
    first = check_identity(f, w3, mode="sample", samples=50, seed=7)
    second = check_identity(f, w3, mode="sample", samples=50, seed=7)
    assert not first.holds
    assert first.witness == second.witness
    args = dict(zip(sorted({1, 2, 3}), first.witness))
    assert evaluate_polynomial(f, args, w3)
    assert check_identity(left_commutativity(QQ), w3, mode="sample", samples=30, seed=1).holds


def test_witness_repr_prints_scalars_as_the_cli_does(tmp_path, capsys):
    """Reprs show a witness as the CLI prints it, whether a rational
    coordinate is held as an int or as a Fraction."""
    for spec, field in (("q", QQ), ("fp:3", F3)):
        w3 = witt_truncated(3, field)
        res = check_identity(right_commutativity(field), w3, mode="sample", samples=50, seed=7)
        coords = "; ".join(
            "{" + ", ".join(f"{i}: {c}" for i, c in sorted(w.items())) + "}" for w in res.witness
        )
        assert repr(res) == f"CheckResult(Fails, witness=({coords}), mode=sample)"
        algebra = tmp_path / f"w3-{spec[-1]}.json"
        algebra.write_text(w3.to_json())
        code = main(["check-identity", "--algebra", str(algebra), "--mode", "sample",
                     "--samples", "50", "--seed", "7", "--identity", "((x1*x2)*x3) - ((x1*x3)*x2)"])
        assert (code, capsys.readouterr().out) == (1, f"Fails\nwitness: ({coords})\n")
        verdict = check_bicommutative(w3)
        assert repr(verdict) == "BicommVerdict(Fails, witness=(e1,e0,e1))"
        assert repr(verdict.right) == "CheckResult(Fails, witness=(e1,e0,e1), mode=multilinear)"
    held = {0: Fraction(-2), 1: 1, 2: Fraction(3, 2)}, {1: Fraction(4, 2)}
    assert format_witness(held) == "({0: -2, 1: 1, 2: 3/2}; {1: 2})"
    assert repr(CheckResult(False, held, "sample")) == (
        "CheckResult(Fails, witness=({0: -2, 1: 1, 2: 3/2}; {1: 2}), mode=sample)"
    )
    holds = CheckResult(True, None, "sample")
    assert repr(BicommVerdict(holds, holds)) == "BicommVerdict(Holds)"
    assert format_witness(None) == "none"


def test_sample_mode_needs_a_sample():
    """With no sample tried, "Holds" would certify nothing."""
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            check_identity(right_commutativity(QQ), witt_truncated(3, QQ), "sample", samples)


def _truncated_free_algebra(field, max_degree):
    """The free algebra on x1, x2 cut beyond max_degree, with its basis
    and the coordinate map."""
    basis = [BicommElement.generator(field, 1), BicommElement.generator(field, 2)]
    monos = []
    for d in range(2, max_degree + 1):
        for m in sorted(_mixed_of_degree(d), key=str):
            monos.append(m)
    basis += [BicommElement.from_quad(Poly(field, {m: field.one})) for m in monos]
    index = {("l", 1): 0, ("l", 2): 1}
    for pos, m in enumerate(monos, start=2):
        index[("q", m)] = pos

    def coords(e):
        out = {}
        for i, c in e.lin.items():
            out[index[("l", i)]] = c
        for m, c in e.quad.terms.items():
            pos = index.get(("q", m))
            if pos is not None:
                out[pos] = c
        return out

    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            vec = coords(u.multiply(v))
            row = [field.zero] * len(basis)
            for pos, c in vec.items():
                row[pos] = c
            table[(i, j)] = row
    return StructureAlgebra(len(basis), field, table), coords


def _mixed_of_degree(d):
    out = []
    for ydeg in range(1, d):
        zdeg = d - ydeg
        for ys in _exponents(ydeg, 2):
            for zs in _exponents(zdeg, 2):
                out.append(Monomial(ys, zs))
    return out


def _exponents(total, nvars):
    if nvars == 1:
        return [[(1, total)]]
    out = []
    for e1 in range(total + 1):
        rest = total - e1
        for e2 in range(rest, rest + 1):
            pairs = []
            if e1:
                pairs.append((1, e1))
            if e2:
                pairs.append((2, e2))
            out.append(pairs)
    return out


def _random_tree(rng, leaves):
    if len(leaves) == 1:
        return Leaf(leaves[0])
    cut = rng.randint(1, len(leaves) - 1)
    return Node(_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))


def test_evaluation_agrees_with_the_normal_form():
    rng = random.Random(602)
    for field in (QQ, F3):
        alg, coords = _truncated_free_algebra(field, 4)
        assert check_bicommutative(alg).holds
        for _ in range(25):
            leaves = [rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
            poly = NAPolynomial.term(field, _random_tree(rng, leaves))
            more = [rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
            poly = poly.add_scaled(
                random_scalar(rng, field), NAPolynomial.term(field, _random_tree(rng, more))
            )
            args = {k: alg.basis_element(k - 1) for k in (1, 2)}
            got = evaluate_polynomial(poly, args, alg)
            assert got == coords(normalize(poly)), str(poly)


def test_json_round_trip_and_layout():
    w2 = witt_truncated(2, QQ)
    text = w2.to_json()
    assert text == (
        "{\n"
        '  "dim": 2,\n'
        '  "field": "q",\n'
        '  "table": [\n'
        '    [1, 0, ["1", "0"]],\n'
        '    [1, 1, ["0", "1"]]\n'
        "  ]\n"
        "}"
    )
    assert StructureAlgebra.from_json(text) == w2
    empty = StructureAlgebra(1, QQ)
    assert StructureAlgebra.from_json(empty.to_json()) == empty
    for field in (QQ, F5):
        alg = witt_truncated(4, field)
        assert StructureAlgebra.from_json(alg.to_json()) == alg
    half = StructureAlgebra(1, QQ, {(0, 0): [QQ.parse_scalar("1/2")]})
    again = StructureAlgebra.from_json(half.to_json())
    assert again.table[(0, 0)] == (QQ.parse_scalar("1/2"),)
    numeric = StructureAlgebra.from_json_obj({"dim": 1, "field": "fp:5", "table": [[0, 0, [3]]]})
    textual = StructureAlgebra.from_json_obj({"dim": 1, "field": "fp:5", "table": [[0, 0, ["3"]]]})
    assert numeric == textual
    spelled = StructureAlgebra.from_json_obj({"dim": "1", "field": "fp:5", "table": [["0", 0, [3]]]})
    assert spelled == numeric
    # a product given twice is refused, even when the rows agree
    for second in ([0, 1], [1, 1]):
        with pytest.raises(BadAlgebra, match=r"two rows for \[0, 0\]"):
            StructureAlgebra.from_json_obj(
                {"dim": 2, "field": "fp:2", "table": [[0, 0, [1, 1]], [0, 0, second]]}
            )


def _random_table_algebra(rng, field, dim):
    """Seeded random structure constants, about half the products zero."""
    table = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.5:
                table[(i, j)] = [
                    random_scalar(rng, field) if rng.random() < 0.4 else field.zero
                    for _ in range(dim)
                ]
    return StructureAlgebra(dim, field, table)


def _random_identity(rng, field, multilinear):
    f = NAPolynomial.zero(field)
    n = rng.randint(2, 3)
    for _ in range(rng.randint(1, 3)):
        if multilinear:
            leaves = rng.sample(range(1, n + 1), n)
        else:
            leaves = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        term = NAPolynomial.term(field, _random_tree(rng, leaves))
        f = f.add_scaled(random_scalar(rng, field, nonzero=True), term)
    return f


def _sympy_vanishes(sympy, f, alg):
    """Whether f expands to zero at generic coordinates, computed with
    sympy polynomials straight from the structure table."""
    field = alg.field
    domain = sympy.QQ if field.is_rationals else sympy.GF(field.characteristic)
    variables = sorted(f.variables())
    symbols = {(k, i): sympy.Symbol(f"a{k}_{i}") for k in variables for i in range(alg.dim)}
    gens = list(symbols.values()) or [sympy.Symbol("unused")]

    def const(c):
        if field.is_rationals:
            return sympy.Poly(sympy.Rational(c.numerator, c.denominator), *gens, domain=domain)
        return sympy.Poly(int(c), *gens, domain=domain)

    def value(t):
        if isinstance(t, Leaf):
            return [sympy.Poly(symbols[(t.index, i)], *gens, domain=domain) for i in range(alg.dim)]
        u, v = value(t.left), value(t.right)
        out = [const(0)] * alg.dim
        for (i, j), coeffs in alg.table.items():
            uv = u[i] * v[j]
            for k, c in enumerate(coeffs):
                if c:
                    out[k] = out[k] + const(c) * uv
        return out

    total = [const(0)] * alg.dim
    for t, c in f.terms.items():
        total = [x + const(c) * y for x, y in zip(total, value(t))]
    return all(x.is_zero for x in total)


def test_symbolic_mode_matches_a_sympy_expansion():
    """Symbolic verdicts equal "f expands to zero" at generic coordinates,
    and multilinear identities get the same verdict in both complete modes."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(603)
    checked = {True: 0, False: 0}
    for field in (QQ, F2, F3):
        algebras = [witt_truncated(3, field), witt_truncated(4, field)]
        algebras.append(_truncated_free_algebra(field, 3)[0])
        algebras += [_random_table_algebra(rng, field, d) for d in (2, 3, 3)]
        for alg in algebras:
            identities = [left_commutativity(field), right_commutativity(field)]
            identities += [_random_identity(rng, field, rng.random() < 0.5) for _ in range(4)]
            for f in identities:
                symbolic = check_identity(f, alg, mode="symbolic")
                expected = _sympy_vanishes(sympy, f, alg)
                assert symbolic.holds == expected, (field, alg, str(f))
                checked[expected] += 1
                try:
                    exhaustive = check_identity(f, alg, mode="multilinear")
                except NotMultilinear:
                    continue
                assert exhaustive.holds == symbolic.holds, (field, alg, str(f))
    assert checked[True] and checked[False]


def _first_failing_tuple(f, alg):
    """Reference multilinear check: evaluate f at every basis tuple in
    itertools.product order and return the first nonzero one."""
    variables = sorted(f.variables())
    for witness in product(range(alg.dim), repeat=len(variables)):
        args = {k: alg.basis_element(i) for k, i in zip(variables, witness)}
        if evaluate_polynomial(f, args, alg):
            return witness
    return None


def _random_multilinear_identity(rng, field, names=None):
    """1 to 4 terms with random bracketings of the same variables, by
    default 1 to 4 of them numbered from 1."""
    if names is None:
        names = list(range(1, rng.randint(1, 4) + 1))
    f = NAPolynomial.zero(field)
    for _ in range(rng.randint(1, 4)):
        term = NAPolynomial.term(field, _random_tree(rng, rng.sample(names, len(names))))
        f = f.add_scaled(random_scalar(rng, field, nonzero=True), term)
    return f


def test_multilinear_witness_matches_the_tuple_by_tuple_reference():
    rng = random.Random(808)
    x1, x2, x3 = Leaf(1), Leaf(2), Leaf(3)
    seen = set()
    for field in (QQ, F2, F3, F5):
        one, zero = field.one, field.zero
        # e0 * e0 = e0: the commutator holds, a lone product fails at tuple 0
        idem = StructureAlgebra(2, field, {(0, 0): [one, zero]})
        # e0 and e1 commute with each other and e2, but e1 * e2 = e2 while
        # e2 * e1 = 0: the commutator's two nonzero terms cancel until (1, 2)
        late = StructureAlgebra(3, field, {
            (0, 0): [one, zero, zero], (0, 1): [zero, one, zero], (1, 0): [zero, one, zero],
            (1, 1): [one, zero, zero], (1, 2): [zero, zero, one],
        })
        commutator = NAPolynomial.term(field, Node(x1, x2)).sub(NAPolynomial.term(field, Node(x2, x1)))
        cases = [
            (left_commutativity(field), witt_truncated(4, field)),
            (commutator, idem),
            (NAPolynomial.term(field, Node(Node(x1, x3), x2)), idem),
            (commutator, late),
            (NAPolynomial.term(field, Node(x3, Node(x1, x2))).sub(
                NAPolynomial.term(field, Node(x3, Node(x2, x1)))), late),
            (NAPolynomial.term(field, Leaf(4)).scale(field.from_int(2)),
             _random_table_algebra(rng, field, 3)),
        ]
        for dim in range(1, 6):
            for _ in range(3):
                alg = _random_table_algebra(rng, field, dim)
                cases += [(_random_multilinear_identity(rng, field), alg) for _ in range(4)]
                # variables other than 1..n, taken to positions in sorted order
                names = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
                cases.append((_random_multilinear_identity(rng, field, names), alg))
        cases.append((_random_multilinear_identity(rng, field, [2, 5, 7]), late))
        for f, alg in cases:
            want = _first_failing_tuple(f, alg)
            got = check_identity(f, alg)
            assert (got.holds, got.witness) == (want is None, want), (str(f), alg)
            seen.add("holds" if want is None else "at 0" if not any(want) else "later")
    assert seen == {"holds", "at 0", "later"}


def test_integer_parameters_refuse_floats_and_bools():
    """A dimension and a sample count must be ints that are no bools: a
    float, a bool or a string raises ValueError, as a count below 1 does,
    instead of being truncated or read as 1."""
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="dimension must be an int"):
            witt_truncated(bad, QQ)
        with pytest.raises(ValueError, match="dimension must be an int"):
            StructureAlgebra(bad, QQ)
    w3 = witt_truncated(3, QQ)
    f = right_commutativity(QQ)
    for bad in (True, 1.0, 2.5, "3"):
        with pytest.raises(ValueError, match="samples must be an int"):
            check_identity(f, w3, mode="sample", samples=bad)
    assert not check_identity(f, w3, mode="sample", samples=50, seed=7)


def test_structure_tables_are_validated_like_elements():
    """Table indices follow the index rule of check_element, and each
    coefficient is stored through Field.canonical: a float, a bool, text
    or None raises BadElement, and a residue is reduced mod p."""
    with pytest.raises(BadElement):
        StructureAlgebra(1, QQ, {(0, 0): [0.5]})
    for bad in ("x", True, None, 1.0):
        with pytest.raises(BadElement):
            StructureAlgebra(2, QQ, {(0, 1): [bad, 0]})
    for pair in ((0.5, 1), (True, 1), (1, False), ("a", 0), (None, 0)):
        with pytest.raises(BadElement):
            StructureAlgebra(2, QQ, {pair: [1, 0]})
    reduced = StructureAlgebra(2, F3, {(0, 1): [4, 0], (1, 1): [-1, Fraction(1, 2)]})
    assert reduced == StructureAlgebra(2, F3, {(0, 1): [1, 0], (1, 1): [2, 2]})
    assert reduced.table == {(0, 1): (1, 0), (1, 1): (2, 2)}
    assert '[0, 1, ["1", "0"]]' in reduced.to_json()
    assert reduced.product({0: 1}, {1: 1}) == {0: 1}
    assert StructureAlgebra(2, F3, {(0, 1): [3, 0]}).table == {}
    half = Fraction(1, 2)
    assert StructureAlgebra(2, QQ, {("1", 0): [half, 0]}).table == {(1, 0): (half, 0)}


def _reference_add(field, acc, k, x):
    s = field.add(acc.get(k, field.zero), x)
    if s:
        acc[k] = s
    else:
        acc.pop(k, None)


def _reference_product(alg, u, v):
    """Reference product: plain loops over the dense rows of alg.table,
    each sum in the field's own add and mul, cancelled keys dropped."""
    field = alg.field
    acc = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in enumerate(alg.table.get((i, j), ())):
                if c:
                    _reference_add(field, acc, k, field.mul(field.mul(a, b), c))
    return acc


def _reference_value(f, args, alg):
    """Reference value of f at coordinate dicts args[variable index]."""

    def tree(t):
        if isinstance(t, Leaf):
            return args[t.index]
        return _reference_product(alg, tree(t.left), tree(t.right))

    acc = {}
    for t, c in f.sorted_terms():
        for k, v in tree(t).items():
            _reference_add(alg.field, acc, k, alg.field.mul(c, v))
    return acc


def _typed(value):
    """Items of a coordinate dict in key order, with each scalar's type."""
    return [(k, c, type(c)) for k, c in value.items()]


def _random_value(rng, field):
    """A canonical scalar, often zero; over Q an int or a Fraction,
    integral Fractions included."""
    if field.is_rationals:
        return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return rng.randrange(field.characteristic)


def _random_coordinates(rng, field, dim):
    """Random coordinates, in shuffled index order."""
    indices = rng.sample(range(dim), rng.randint(0, dim))
    return {i: c for i in indices if (c := _random_value(rng, field))}


def _random_coefficient_table(rng, field, dim):
    """Like _random_table_algebra, with Fraction coefficients over Q."""
    table = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.6:
                table[(i, j)] = [_random_value(rng, field) for _ in range(dim)]
    return StructureAlgebra(dim, field, table)


def test_product_and_evaluation_match_a_dense_reference():
    """product and evaluate_polynomial give the reference's values, key
    order and int/Fraction types on random tables and arguments."""
    rng = random.Random(2020)
    for field in (QQ, F2, F3, F5):
        for dim in (1, 2, 3, 4):
            for _ in range(6):
                alg = _random_coefficient_table(rng, field, dim)
                for _ in range(5):
                    u, v = (_random_coordinates(rng, field, dim) for _ in range(2))
                    assert _typed(alg.product(u, v)) == _typed(_reference_product(alg, u, v))
                f = _random_identity(rng, field, rng.random() < 0.5)
                args = [_random_coordinates(rng, field, dim) for _ in range(3)]
                want = _reference_value(f, dict(enumerate(args, 1)), alg)
                assert _typed(evaluate_polynomial(f, args, alg)) == _typed(want), (str(f), alg)


def _reference_sample_check(f, alg, samples, seed):
    """Sample mode replayed: per sample, per variable in sorted order, per
    basis index one draw, randint(-3, 3) over Q or randrange(p) over F_p,
    zeros dropped; the first tuple with a nonzero reference value fails."""
    rng = random.Random(seed)
    field = alg.field
    variables = sorted(f.variables())
    for _ in range(samples):
        args = {}
        for k in variables:
            coords = {}
            for i in range(alg.dim):
                c = rng.randint(-3, 3) if field.is_rationals else rng.randrange(field.characteristic)
                if c:
                    coords[i] = c
            args[k] = coords
        if _reference_value(f, args, alg):
            return False, tuple(args[k] for k in variables)
    return True, None


def test_sample_mode_matches_a_replayed_reference():
    rng = random.Random(2021)
    seen = set()
    for field in (QQ, F2, F3, F5):
        algebras = [witt_truncated(3, field), witt_truncated(4, field)]
        algebras.append(_truncated_free_algebra(field, 3)[0])
        algebras += [_random_coefficient_table(rng, field, d) for d in (1, 2, 3)]
        for alg in algebras:
            identities = [left_commutativity(field), right_commutativity(field)]
            identities += [_random_identity(rng, field, rng.random() < 0.5) for _ in range(3)]
            for f in identities:
                samples, seed = rng.randint(1, 6), rng.randrange(1000)
                got = check_identity(f, alg, mode="sample", samples=samples, seed=seed)
                want = _reference_sample_check(f, alg, samples, seed)
                assert (got.holds, got.witness) == want, (str(f), alg, samples, seed)
                seen.add(got.holds)
    assert seen == {True, False}
