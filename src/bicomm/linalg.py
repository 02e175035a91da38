"""Exact row reduction over a Field, with dependency tracking.

Vectors are sparse dicts mapping hashable keys to nonzero scalars.  Every
sum of rows accumulates through Field.add_into, which deletes the keys
that cancel, so no zero is ever stored.  A new row's pivot is its
greatest key, so keys must be mutually comparable.  An Echelon keeps a
fully interreduced basis of the span of the vectors inserted so far, one
row per pivot.  No row has an entry at another row's pivot, so reducing
a vector visits only the pivots it holds.  A column index maps each key
that is no pivot to the pivots of the rows that may hold it, so a new
pivot is cleared from just those rows, as in the sparse elimination of
F4; a row the index names is checked first, so nothing leaves the index.

Rows are fraction-free (Bareiss): in the form of primitive, coprime
integers with a positive pivot entry over the rationals and monic
residues over F_p, as the Groebner rows of ideals are.  A row is divided
by its pivot entry only when it is read (rows, express).  Once a
labelled vector comes in, each row also keeps the combination of
labelled vectors that gives its monic form, which yields dependency
certificates and membership coefficients for free.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .scalars import Field


def integral(vec: dict, p: int):
    """(ints, d): the nonzero entries of vec as integers over a common
    denominator d; over F_p (p > 0) the residues themselves, with d = 1."""
    if p:
        return {k: c for k, c in vec.items() if c}, 1
    d = lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in vec.items() if c}, d


def primitive(lead: int, pairs, p: int) -> list:
    """The (key, integer) pairs of a nonzero vector whose pivot entry is
    lead, scaled to their canonical form: over the rationals (p = 0)
    coprime with a positive lead, over F_p monic residues.  Vectors that
    are scalar multiples of each other get equal forms.  pairs is read
    twice."""
    if p:
        inv = pow(lead, p - 2, p)
        return [(k, c * inv % p) for k, c in pairs]
    g = gcd(*(c for _, c in pairs))
    if lead < 0:
        g = -g
    return [(k, c // g) for k, c in pairs]


def _cancel(vec: dict, row: dict, pivot, add_into) -> int:
    """Scale vec by the returned factor, then subtract the multiple of
    row that clears vec at pivot, both in integers."""
    a, lc = vec[pivot], row[pivot]
    g = gcd(a, lc)
    if (f := lc // g) != 1:
        for k in vec:
            vec[k] *= f
    add_into(vec, row.items(), -(a // g))
    return f


class Echelon:
    """Tracked reduced row echelon form of a growing set of sparse vectors."""

    __slots__ = ("field", "_rows", "_cols", "_combos")

    def __init__(self, field: Field):
        self.field = field
        # pivot -> row in the form of primitive, in the order rows were made
        self._rows = {}
        # key that is no pivot -> pivots of the rows that may hold it
        self._cols = defaultdict(set)
        # pivot -> combination, once a labelled vector came in: the monic
        # row equals the sum of combo[l] * (inserted vector labelled l)
        self._combos = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return list(self._rows)

    @property
    def rows(self) -> list:
        """(pivot, monic vector, combination) per row, in the order the
        rows were made; fresh dicts, built on every read."""
        combos = self._combos or {}
        out = []
        for pivot, row in self._rows.items():
            lead = row[pivot]
            vec = dict(row) if lead == 1 else {k: Fraction(c, lead) for k, c in row.items()}
            out.append((pivot, vec, dict(combos.get(pivot, {}))))
        return out

    def _residual(self, vec: dict):
        """(work, scale): vec less its components along the rows, times
        scale.  Over the rationals work holds integers and scale is a
        positive int; over F_p scale is 1."""
        add_into = self.field.add_into
        rows = self._rows
        work, scale = integral(vec, self.field.characteristic)
        for pivot in [k for k in work if k in rows]:
            scale *= _cancel(work, rows[pivot], pivot, add_into)
        return work, scale

    def _used(self, vec: dict) -> dict:
        """Coefficients over labels of vec's components along the rows:
        the sum of vec[pivot] times the combination of each pivot's row."""
        used = {}
        combos = self._combos or {}
        for k, c in vec.items():
            if c and k in combos:
                self.field.add_into(used, combos[k].items(), c)
        return used

    def insert(self, vec: dict, label=None):
        """Add a vector to the span.

        Returns None if the span grew, else a dict of coefficients over
        earlier labels expressing vec inside the previous span.
        """
        f = self.field
        p = f.characteristic
        rows = self._rows
        if label is not None and self._combos is None:
            self._combos = {pivot: {} for pivot in rows}
        combos = self._combos
        work, scale = self._residual(vec)
        if not work:
            return self._used(vec)
        pivot = max(work)
        lc = work[pivot]
        row = dict(primitive(lc, work.items(), p))
        if combos is not None:
            # the monic row is work / lc, and work is scale times vec less
            # its components along the rows
            inv = f.inv(lc) if p else Fraction(scale, lc)
            combo = {label: inv} if label is not None else {}
            f.add_into(combo, self._used(vec).items(), -inv)
        cols = self._cols
        rest = [k for k in row if k != pivot]
        for k in rest:
            cols[k].add(pivot)
        # keep earlier rows clear of the new pivot
        for p_old in cols.pop(pivot, ()):
            row_old = rows[p_old]
            c = row_old.get(pivot)
            if c is None:
                continue
            if combos is not None:
                lc_old = row_old[p_old]
                f.add_into(combos[p_old], combo.items(), -c if lc_old == 1 else -Fraction(c, lc_old))
            _cancel(row_old, row, pivot, f.add_into)
            if not p and (g := gcd(*row_old.values())) != 1:
                for k in row_old:
                    row_old[k] //= g
            for k in rest:
                cols[k].add(p_old)
        rows[pivot] = row
        if combos is not None:
            combos[pivot] = combo
        return None

    def express(self, vec: dict):
        """Coefficients over inserted labels with vec = sum c_l v_l, or None."""
        work, _ = self._residual(vec)
        if work:
            return None
        return self._used(vec)

    def contains(self, vec: dict) -> bool:
        work, _ = self._residual(vec)
        return not work
