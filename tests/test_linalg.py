"""Incremental echelon forms checked against a plain dense elimination."""

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


def test_custom_sort_key_controls_pivot_choice():
    ech = Echelon(QQ, sort_key=lambda j: -j)
    ech.insert({1: QQ.one, 5: QQ.one})
    assert ech.pivots() == [1]
    ech2 = Echelon(QQ)
    ech2.insert({1: QQ.one, 5: QQ.one})
    assert ech2.pivots() == [5]


def test_zero_vector_insert_reports_empty_dependency():
    ech = Echelon(QQ)
    dep = ech.insert({}, label="z")
    assert dep == {}
    assert ech.rank == 0
