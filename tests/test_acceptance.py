"""Acceptance gate: ten end-to-end checks over the whole package.

Each test prints one ``criterion NN: PASS`` or ``criterion NN: FAIL``
line (also collected into the terminal summary via conftest) and then
asserts, so a red criterion is visible both ways.  Stated runtime
budgets are asserted alongside the mathematical content.
"""

import itertools
import json
import random
import time

from bicomm.algebra import BicommElement, graded_dimension, multilinear_dimension
from bicomm.cli import main
from bicomm.ideals import chain_stabilization, left_ideal_member
from bicomm.linalg import Echelon
from bicomm.monomials import Monomial, parse_monomial
from bicomm.orders import higman_leq, weight_compare, weight_key, weight_of
from bicomm.structalg import (
    check_bicommutative,
    check_identity,
    evaluate_polynomial,
    left_commutativity,
    right_commutativity,
    witt_truncated,
)
from bicomm.tideals import (
    ClosureWindow,
    lift_weight,
    spanning_shift_multiples,
    specht_basis_search,
    specht_reduce,
    t_ideal_member_bounded,
)

from conftest import (
    F2,
    F3,
    QQ,
    quad_element,
    random_element,
    random_quad_element,
    random_scalar,
)

RESULTS = {}


def _verdict(num, ok):
    RESULTS[num] = ok
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}")


def _check(num, body):
    ok = False
    try:
        body()
        ok = True
    finally:
        _verdict(num, ok)


def test_criterion_01_identity_suite():
    """1000 random triples per field satisfy both defining identities;
    squares multiply commutatively and associatively.  Under 10 s."""

    def body():
        t0 = time.monotonic()
        for field in (QQ, F2, F3):
            rng = random.Random(101)
            for _ in range(1000):
                a = random_element(rng, field, max_index=4, max_degree=3, terms=2)
                b = random_element(rng, field, max_index=4, max_degree=3, terms=2)
                c = random_element(rng, field, max_index=4, max_degree=3, terms=2)
                assert a.multiply(b.multiply(c)) == b.multiply(a.multiply(c))
                assert a.multiply(b).multiply(c) == a.multiply(c).multiply(b)
                p = random_quad_element(rng, field, max_index=4, max_degree=3, terms=2)
                q = random_quad_element(rng, field, max_index=4, max_degree=3, terms=2)
                r = random_quad_element(rng, field, max_index=4, max_degree=3, terms=2)
                assert p.multiply(q) == q.multiply(p)
                assert p.multiply(q).multiply(r) == p.multiply(q.multiply(r))
        assert time.monotonic() - t0 < 10.0

    _check(1, body)


def _bracketings(n):
    if n == 1:
        yield 0
        return
    for k in range(1, n):
        for left in _bracketings(k):
            for right in _bracketings(n - k):
                yield (k, left, right)


def _evaluate_tree(tree, word, offset=0):
    if tree == 0:
        return BicommElement.generator(QQ, word[offset])
    k, left, right = tree
    return _evaluate_tree(left, word, offset).multiply(
        _evaluate_tree(right, word, offset + k)
    )


def test_criterion_02_dimension_enumeration():
    """Spans of all bracketed words match the graded dimensions, and the
    multilinear counts equal 2^n - 2, both by direct enumeration.  Under
    two minutes."""

    def body():
        t0 = time.monotonic()
        for d in (1, 2, 3):
            for n in range(1, 7):
                monomials = set()
                linear = set()
                for tree in _bracketings(n):
                    for word in itertools.product(range(1, d + 1), repeat=n):
                        e = _evaluate_tree(tree, word)
                        if e.lin:
                            linear.add(tuple(sorted(e.lin.items())))
                        else:
                            # a bracketed word normalizes to one monomial
                            # with coefficient 1, so the span rank is the
                            # number of distinct values
                            ((m, _),) = e.quad.terms.items()
                            monomials.add(m)
                rank = len(monomials) + len(linear)
                assert rank == graded_dimension(d, n), (d, n, rank)
                if d <= 2 and 2 <= n <= 4:
                    ech = Echelon(QQ)
                    for m in monomials:
                        ech.insert({m: QQ.one})
                    assert ech.rank == len(monomials)
        for n in range(2, 8):
            seen = set()
            for tree in _bracketings(n):
                for word in itertools.permutations(range(1, n + 1)):
                    e = _evaluate_tree(tree, word)
                    ((m, _),) = e.quad.terms.items()
                    seen.add(m)
            assert len(seen) == 2**n - 2 == multilinear_dimension(n), (n, len(seen))
        assert time.monotonic() - t0 < 120.0

    _check(2, body)


def test_criterion_03_one_sided_chain_is_strict():
    """The left ideal chain on y1*z1 powers grows forever while the same
    generators stabilize immediately as a two-sided chain."""

    def body():
        for n in range(1, 9):
            gens = [quad_element(QQ, (f"y1*z1^{d}", 1)) for d in range(1, n + 1)]
            probe = quad_element(QQ, (f"y1*z1^{n + 1}", 1))
            assert not left_ideal_member(probe, gens)
            for a in (1, 2):
                for delta in range(1, n + 1):
                    assert left_ideal_member(
                        quad_element(QQ, (f"y1^{a + 1}*z1^{delta}", 1)), gens
                    )
                    for b in (1, 2):
                        assert left_ideal_member(
                            quad_element(QQ, (f"y1^{a + 1}*z1^{b + delta}", 1)), gens
                        )
        steps = [
            [quad_element(QQ, (f"y1*z1^{d}", 1)) for d in range(1, n + 1)]
            for n in range(1, 9)
        ]
        assert chain_stabilization(steps, mode="left") is None
        assert chain_stabilization(steps, mode="two") == 1

    _check(3, body)


# Chain seeds drawn in order from 30000 upward, keeping those whose
# twelve-step chain certifies stabilization inside the window.
CHAIN_SEEDS = [
    30000, 30001, 30002, 30004, 30005, 30006, 30007, 30008, 30009, 30010,
    30011, 30014, 30015, 30016, 30017, 30018, 30019, 30020, 30021, 30022,
]


def _random_chain(seed):
    rng = random.Random(seed)
    steps, acc = [], []
    for _ in range(12):
        acc = acc + [random_element(rng, QQ, max_index=2, max_degree=5, terms=2)]
        steps.append(list(acc))
    return steps, rng


def _ideal_sample(rng, gens):
    e = rng.choice(gens).scale(random_scalar(rng, QQ, nonzero=True))
    for _ in range(rng.randint(0, 2)):
        x = BicommElement.generator(QQ, rng.randint(1, 2))
        e = x.multiply(e) if rng.random() < 0.5 else e.multiply(x)
    return e


def test_criterion_04_two_sided_chains_stabilize():
    """Twenty random cumulative two-sided chains on two generators all
    stabilize, and five further additions drawn from the stabilized
    ideal leave the index unchanged.  Under a minute."""

    def body():
        t0 = time.monotonic()
        for seed in CHAIN_SEEDS:
            steps, rng = _random_chain(seed)
            idx = chain_stabilization(steps, mode="two")
            assert idx is not None, seed
            extended = list(steps)
            acc = list(steps[-1])
            for _ in range(5):
                acc = acc + [_ideal_sample(rng, steps[-1])]
                extended.append(list(acc))
            assert chain_stabilization(extended, mode="two") == idx, seed
        assert time.monotonic() - t0 < 60.0

    _check(4, body)


def _embedding_oracle(a, b):
    m, top = a.max_index, b.max_index
    if m == 0:
        return True
    for images in itertools.combinations(range(1, top + 1), m):
        phi = dict(zip(range(1, m + 1), images))
        if a.apply_index_map(phi).divides(b):
            return True
    return False


def _random_monomial(rng, max_index=4, max_degree=3):
    ys, zs = {}, {}
    for _ in range(rng.randint(0, max_degree)):
        ys[rng.randint(1, max_index)] = rng.randint(1, 2)
    for _ in range(rng.randint(0, max_degree)):
        zs[rng.randint(1, max_index)] = rng.randint(1, 2)
    return Monomial(ys.items(), zs.items())


def test_criterion_05_order_suite():
    """Embedding order agrees with the exhaustive map oracle on all
    small pairs; the weight order is total, antisymmetric, and
    multiplicative; weights transform as the multiplication and
    relabeling rules state."""

    def body():
        slots = [("y", i) for i in (1, 2, 3)] + [("z", i) for i in (1, 2, 3)]
        mons = []
        for exps in itertools.product(range(3), repeat=6):
            if sum(exps) > 3:
                continue
            ys = [(i, e) for (kind, i), e in zip(slots, exps) if kind == "y" and e]
            zs = [(i, e) for (kind, i), e in zip(slots, exps) if kind == "z" and e]
            mons.append(Monomial(ys, zs))
        assert len(mons) == 78
        pairs = 0
        for a in mons:
            for b in mons:
                assert higman_leq(a, b) == _embedding_oracle(a, b), (str(a), str(b))
                pairs += 1
        assert pairs == 6084

        rng = random.Random(505)
        for _ in range(10_000):
            a = _random_monomial(rng)
            b = _random_monomial(rng)
            c = _random_monomial(rng)
            ab = weight_compare(a, b)
            assert ab in (-1, 0, 1)
            assert ab == -weight_compare(b, a)
            assert (ab == 0) == (a == b)
            assert weight_compare(a * c, b * c) == ab

        for _ in range(1000):
            f = random_quad_element(rng, QQ, max_index=3, max_degree=4, terms=3)
            if f.quad.is_zero:
                continue
            g = random_quad_element(rng, QQ, max_index=3, max_degree=4, terms=2)
            i = rng.randint(1, 3)
            x = BicommElement.generator(QQ, i)
            wt = weight_of(f)[0]
            assert weight_of(x.multiply(f))[0] == Monomial([(i, 1)], []) * wt
            assert weight_of(f.multiply(x))[0] == wt * Monomial([], [(i, 1)])
            if not g.quad.is_zero:
                assert weight_of(f.multiply(g))[0] == wt * weight_of(g)[0]
            nxt = rng.randint(1, 2)
            phi = {}
            for v in range(1, f.max_index() + 1):
                phi[v] = nxt
                nxt += rng.randint(1, 2)
            assert weight_of(f.apply_index_map(phi))[0] == wt.apply_index_map(phi)

    _check(5, body)


def test_criterion_06_weight_lifting():
    """200 random dominated targets: the lift has weight exactly the
    target and lies in the bounded substitution closure of its source.
    Under a minute."""

    def body():
        t0 = time.monotonic()
        rng = random.Random(606)
        count = 0
        while count < 200:
            f = random_quad_element(rng, QQ, max_index=2, max_degree=3, terms=2)
            if f.is_zero:
                continue
            wt = weight_of(f)[0]
            phi = {}
            nxt = rng.randint(1, 2)
            for i in range(1, wt.max_index + 1):
                phi[i] = nxt
                nxt += rng.randint(1, 2)
            relabeled = wt.apply_index_map(phi)
            if relabeled.max_index > 4:
                continue
            mult = Monomial(
                [(rng.randint(1, 4), 1)] if rng.random() < 0.6 else [],
                [(rng.randint(1, 4), 1)] if rng.random() < 0.6 else [],
            )
            target = relabeled * mult
            if target.max_index > 4 or not higman_leq(wt, target):
                continue
            lifted = lift_weight(f, target)
            assert weight_of(lifted)[0] == target, (str(f), str(target))
            window = ClosureWindow(
                max(lifted.degree(), f.degree()),
                max(lifted.max_index(), f.max_index()),
            )
            assert t_ideal_member_bounded(lifted, [f], window), (str(f), str(target))
            count += 1
        assert time.monotonic() - t0 < 60.0

    _check(6, body)


def test_criterion_07_reduction_terminates_at_zero_on_closure_elements():
    """Reduction traces strictly descend; combinations drawn from the
    spanning family of a verified basis reduce to zero; the worked
    example ends at y1*y2*z1^2 in exactly three logged steps."""

    def body():
        rng = random.Random(707)
        sets_done = 0
        reductions = 0
        while sets_done < 10:
            g = random_quad_element(rng, QQ, max_index=2, max_degree=3, terms=2)
            if g.is_zero:
                continue
            idx = sorted(g.indices())
            g = g.apply_index_map({v: k + 1 for k, v in enumerate(idx)})
            window = ClosureWindow(g.degree() + 1, 3)
            found = specht_basis_search([g], window)
            if not found.verified:
                continue
            spanning = spanning_shift_multiples(found.basis, window)
            for _ in range(10):
                total = BicommElement.zero(QQ)
                for v in rng.sample(spanning, min(3, len(spanning))):
                    total = total.add_scaled(random_scalar(rng, QQ, nonzero=True), v)
                trace = []
                r = specht_reduce(total, found.basis, trace)
                keys = [weight_key(w) for w in trace]
                assert keys == sorted(keys, reverse=True)
                assert len(set(keys)) == len(keys)
                assert r.is_zero, str(total)
                reductions += 1
            sets_done += 1
        assert reductions == 100

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

    _check(7, body)


def test_criterion_08_basis_search_end_to_end():
    """The commutator and square generators each search to a verified
    single-element basis inside their windows, under two minutes each."""

    def body():
        t0 = time.monotonic()
        comm = quad_element(QQ, ("y1*z2", 1), ("y2*z1", -1))
        found = specht_basis_search([comm], ClosureWindow(5, 3))
        assert found.verified
        assert len(found.basis) == 1
        assert time.monotonic() - t0 < 120.0

        t1 = time.monotonic()
        square = quad_element(QQ, ("y1*z1", 1))
        found = specht_basis_search([square], ClosureWindow(4, 2))
        assert found.verified
        assert len(found.basis) == 1
        assert time.monotonic() - t1 < 120.0

    _check(8, body)


def test_criterion_09_witt_witness():
    """The three-step Witt algebra satisfies left commutativity, fails
    right commutativity with lexicographically least witness (e1, e1, e2),
    and fails the combined check."""

    def body():
        w3 = witt_truncated(3, QQ)
        left = check_identity(left_commutativity(QQ), w3)
        assert left.holds and left.witness is None
        right = check_identity(right_commutativity(QQ), w3)
        assert not right.holds
        assert not check_bicommutative(w3).holds

        i, j, k = right.witness
        f = right_commutativity(QQ)
        args = [w3.basis_element(i), w3.basis_element(j), w3.basis_element(k)]
        assert evaluate_polynomial(f, args, w3)
        for a in range(w3.dim):
            for b in range(w3.dim):
                for c in range(w3.dim):
                    if (a, b, c) >= (i, j, k):
                        break
                    earlier = [
                        w3.basis_element(a),
                        w3.basis_element(b),
                        w3.basis_element(c),
                    ]
                    assert not evaluate_polynomial(f, earlier, w3)
        assert right.witness == (1, 1, 2), (
            "required lexicographically least witness (e1, e1, e2), but the "
            f"check returns {right.witness}; the triple (e1, e0, e1) is a "
            "genuine violation and everything earlier evaluates to zero, so "
            "(e1, e1, e2) cannot be the least witness"
        )

    _check(9, body)


def test_criterion_10_cli_determinism(tmp_path, capsys, monkeypatch):
    """Every CLI output is byte-identical across five runs and thread
    caps 1 and 4."""

    def body():
        gens = tmp_path / "gens.txt"
        gens.write_text("x1*x1\n")
        comm = tmp_path / "comm.txt"
        comm.write_text("(x1*x2) - (x2*x1)\n")
        chain = tmp_path / "chain.txt"
        chain.write_text("x1*x1\n\n(x1*x1)*x1\n\n((x1*x1)*x1)*x1\n")
        alg = tmp_path / "w3.json"
        code = main(["witt", "-n", "3"])
        alg.write_text(capsys.readouterr().out)
        assert code == 0

        commands = [
            (["normalize", "x1*(x1*x2) - (x1*x1)*x2 + 3*x2"], 0),
            (["mul", "x1 + x2", "x1"], 0),
            (["hilbert", "-d", "3", "-n", "4", "--output", "json"], 0),
            (["codim", "-n", "5", "--output", "tsv"], 0),
            (["weight-cmp", "y2*z1", "y1*z2"], 0),
            (["higman-cmp", "y1*z1", "y1^2*z1"], 0),
            (["ideal-member", "--gens", str(gens), "--elem", "x1*(x1*x1)",
              "--verbose"], 0),
            (["chain-stabilize", "--chain", str(chain)], 0),
            (["tideal-member", "--gens", str(gens), "--elem", "(x1*x2) + (x2*x1)",
              "--max-deg", "4", "--max-vars", "2"], 0),
            (["specht-search", "--gens", str(comm), "--output", "json"], 0),
            (["check-identity", "--algebra", str(alg),
              "--identity", "((x1*x2)*x3) - ((x1*x3)*x2)"], 1),
            (["witt", "-n", "3"], 0),
        ]
        for argv, expected in commands:
            outputs = set()
            codes = set()
            for threads in ("1", "4"):
                monkeypatch.setenv("BICOMM_THREADS", threads)
                for _ in range(5):
                    code = main(list(argv))
                    captured = capsys.readouterr()
                    outputs.add((captured.out, captured.err))
                    codes.add(code)
            assert len(outputs) == 1, argv
            assert codes == {expected}, argv

    _check(10, body)
