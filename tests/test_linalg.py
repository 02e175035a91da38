"""Incremental echelon forms checked against a plain dense elimination."""

import math
import random
from fractions import Fraction

from bicomm.linalg import Echelon
from bicomm.scalars import Field

SEED = 515

QQ = Field.rationals()
F5 = Field.prime(5)


def _dense_rank(rows, ncols):
    """Fraction-based Gaussian elimination, written independently."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _dense_rank_mod(rows, ncols, p):
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _to_sparse(row, field):
    return {j: field.from_int(v) for j, v in enumerate(row) if field.from_int(v)}


def test_rank_matches_dense_elimination_over_rationals():
    rng = random.Random(SEED)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        ech = Echelon(QQ)
        for row in rows:
            ech.insert(_to_sparse(row, QQ))
        assert ech.rank == _dense_rank(rows, ncols)


def test_rank_matches_dense_elimination_mod_p():
    rng = random.Random(SEED)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(0, 4) for _ in range(ncols)] for _ in range(nrows)]
        ech = Echelon(F5)
        for row in rows:
            ech.insert(_to_sparse(row, F5))
        assert ech.rank == _dense_rank_mod(rows, ncols, 5)


def test_insert_returns_dependency_that_reconstructs_the_vector():
    rng = random.Random(SEED)
    vectors = {}
    ech = Echelon(QQ)
    for label in range(40):
        ncols = 5
        row = [rng.randint(-2, 2) for _ in range(ncols)]
        vec = _to_sparse(row, QQ)
        vectors[label] = vec
        dep = ech.insert(dict(vec), label=label)
        if dep is None:
            continue
        built = {}
        for other, c in dep.items():
            for j, v in vectors[other].items():
                built[j] = built.get(j, QQ.zero) + c * v
        built = {j: v for j, v in built.items() if v}
        assert built == vec


def test_contains_and_express():
    ech = Echelon(QQ)
    ech.insert({0: QQ.one, 1: QQ.one}, label="a")
    ech.insert({1: QQ.one}, label="b")
    combo = {0: QQ.from_int(2), 1: QQ.from_int(5)}
    assert ech.contains(combo)
    expr = ech.express(combo)
    assert expr == {"a": QQ.from_int(2), "b": QQ.from_int(3)}
    assert not ech.contains({2: QQ.one})
    assert ech.express({2: QQ.one}) is None
    assert ech.contains({})


def test_zero_vector_insert_reports_empty_dependency():
    ech = Echelon(QQ)
    dep = ech.insert({}, label="z")
    assert dep == {}
    assert ech.rank == 0


# --- Echelon against a dense Gauss-Jordan reference -------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bicomm.linalg import primitive  # noqa: E402

F2, F3 = Field.prime(2), Field.prime(3)


class _DenseEchelon:
    """Gauss-Jordan on dense lists of field scalars, written independently:
    each row is monic at its pivot, the greatest column of the vector left
    after elimination (under rank, a map column -> sort position), and
    every row is zero at every other row's pivot."""

    def __init__(self, field, ncols, rank):
        self.field, self.ncols, self.rank = field, ncols, rank
        self.rows = []  # (pivot, dense row), in the order rows were made

    def residual(self, dense):
        f = self.field
        work = list(dense)
        for pivot, row in self.rows:
            c = work[pivot]
            if c:
                work = [f.sub(a, f.mul(c, b)) for a, b in zip(work, row)]
        return work

    def insert(self, dense) -> bool:
        f = self.field
        work = self.residual(dense)
        support = [j for j in range(self.ncols) if work[j]]
        if not support:
            return False
        pivot = max(support, key=self.rank)
        inv = f.inv(work[pivot])
        row = [f.mul(inv, a) for a in work]
        self.rows = [(p, [f.sub(a, f.mul(old[pivot], b)) for a, b in zip(old, row)] if old[pivot] else old)
                     for p, old in self.rows]
        self.rows.append((pivot, row))
        return True


def _scalar_strategy(field):
    if field.is_rationals:
        return st.one_of(st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    return st.integers(0, field.characteristic - 1)


@st.composite
def _echelon_cases(draw):
    """A field, a column count, a pivot order, vectors (some of them sums of
    earlier ones, so that dependencies occur), labels or none, and queries."""
    field = draw(st.sampled_from([QQ, F2, F3]))
    ncols = draw(st.integers(1, 6))
    dense = st.lists(_scalar_strategy(field), min_size=ncols, max_size=ncols)
    vectors = draw(st.lists(dense, min_size=1, max_size=9))
    for k in range(len(vectors)):
        if k >= 2 and draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            c = draw(_scalar_strategy(field))
            vectors[k] = [field.add(a, field.mul(c, b)) for a, b in zip(vectors[i], vectors[j])]
    reverse = draw(st.booleans())
    labelled = draw(st.booleans())
    queries = draw(st.lists(dense, max_size=4))
    return field, ncols, reverse, labelled, vectors, queries


def _sparse(field, dense, order):
    """The nonzero entries of a dense vector, column j keyed order[j], so
    that Echelon, which pivots on the greatest key, follows the pivot order
    that order gives the dense reference."""
    return {order[j]: field.canonical(c) for j, c in enumerate(dense) if field.canonical(c)}


def _combine(field, combo, vectors):
    out = {}
    for label, c in combo.items():
        field.add_into(out, vectors[label].items(), c)
    return out


@settings(max_examples=300, deadline=None)
@given(_echelon_cases())
def test_echelon_matches_dense_gauss_jordan(case):
    """insert, express, contains, pivots and rows agree with the dense
    reference over Q, F2 and F3, with and without labels; rows read monic,
    and every dependency, expression and row combination rebuilds its
    vector from the labelled inserts."""
    field, ncols, reverse, labelled, vectors, queries = case
    order = list(range(ncols))[::-1] if reverse else list(range(ncols))
    ech = Echelon(field)
    ref = _DenseEchelon(field, ncols, order.__getitem__)
    sparse = {}
    grown = set()
    for label, dense in enumerate(vectors):
        vec = _sparse(field, dense, order)
        sparse[label] = vec
        dep = ech.insert(dict(vec), label=label if labelled else None)
        assert (dep is None) == ref.insert([field.canonical(c) for c in dense])
        if dep is None:
            grown.add(label)
        elif labelled:
            assert set(dep) <= grown and _combine(field, dep, sparse) == vec
        else:
            assert dep == {}
        assert ech.pivots() == [order[p] for p, _ in ref.rows] and ech.rank == len(ref.rows)
        rows = ech.rows
        assert [(p, v) for p, v, _ in rows] == [(order[p], _sparse(field, r, order)) for p, r in ref.rows]
        for p, v, combo in rows:
            assert v[p] == 1
            stored = ech._rows[p]  # held primitive: coprime ints, or monic residues
            assert stored[p] > 0 and math.gcd(*stored.values()) == 1 if not field.characteristic else stored[p] == 1
            if labelled:
                assert set(combo) <= grown and _combine(field, combo, sparse) == v
            else:
                assert combo == {}
    for dense in queries + vectors:
        vec = _sparse(field, dense, order)
        inside = not any(ref.residual([field.canonical(c) for c in dense]))
        assert ech.contains(dict(vec)) == inside
        got = ech.express(dict(vec))
        assert (got is not None) == inside
        if inside and labelled:
            assert set(got) <= grown and _combine(field, got, sparse) == vec


def test_rows_are_stored_primitive_and_read_monic():
    """Over Q a row is held as coprime integers with a positive lead and
    read divided by it; rows that are scalar multiples get one form."""
    ech = Echelon(QQ)
    ech.insert({0: Fraction(1, 2), 1: Fraction(-3, 4)})
    ech.insert({2: -6, 1: 4})
    assert ech._rows == {1: {0: -2, 1: 3}, 2: {2: 9, 0: -4}}
    assert [(p, v) for p, v, _ in ech.rows] == [
        (1, {0: Fraction(-2, 3), 1: 1}),
        (2, {2: 1, 0: Fraction(-4, 9)}),
    ]
    assert primitive(-6, [(2, -6), (0, 4)], 0) == [(2, 3), (0, -2)]
    assert primitive(2, [(2, 2), (0, 1)], 3) == [(2, 1), (0, 2)]


def test_long_sparse_runs_match_dense_gauss_jordan_after_every_insert():
    """30-60 sparse vectors over up to 40 keys, some of them combinations
    of earlier ones, in a shuffled pivot order: a new pivot sits in a few
    of many rows, and rows gain keys as it is cleared from them.  rows,
    pivots and dependencies agree with the dense reference after every
    insert, over Q, F2 and F3, with and without labels."""
    rng = random.Random(SEED)
    values = {QQ: [1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)], F2: [1], F3: [1, 2]}
    for field in (QQ, F2, F3):
        for labelled in (False, True):
            for _ in range(3):
                ncols = rng.randint(20, 40)
                order = list(range(ncols))
                rng.shuffle(order)
                ech = Echelon(field)
                ref = _DenseEchelon(field, ncols, order.__getitem__)
                dense_of, sparse = {}, {}
                for label in range(rng.randint(30, 60)):
                    if label >= 2 and rng.random() < 0.3:
                        i, j = rng.sample(range(label), 2)
                        c = rng.choice(values[field])
                        dense = [field.add(a, field.mul(c, b)) for a, b in zip(dense_of[i], dense_of[j])]
                    else:
                        dense = [0] * ncols
                        for k in rng.sample(range(ncols), rng.randint(1, 5)):
                            dense[k] = rng.choice(values[field])
                    dense_of[label] = dense
                    sparse[label] = vec = _sparse(field, dense, order)
                    dep = ech.insert(dict(vec), label=label if labelled else None)
                    assert (dep is None) == ref.insert(dense)
                    if dep is not None:
                        assert _combine(field, dep, sparse) == vec if labelled else dep == {}
                    assert ech.pivots() == [order[p] for p, _ in ref.rows]
                    rows = ech.rows
                    assert [(p, v) for p, v, _ in rows] == [(order[p], _sparse(field, r, order))
                                                             for p, r in ref.rows]
                    if labelled:
                        assert all(_combine(field, combo, sparse) == v for _, v, combo in rows)
