"""Exact row reduction over a Field, with dependency tracking.

Vectors are sparse dicts mapping hashable keys to nonzero scalars.  A new
row's pivot is its greatest key, under sort_key when one is given.  An
Echelon keeps a fully interreduced monic row basis of the span of the
vectors inserted so far.  Each row remembers a combination expressing it
in terms of the inserted vectors (by caller-chosen labels), which gives
dependency certificates and membership coefficients for free.
"""

from __future__ import annotations

from .scalars import Field


class Echelon:
    """Tracked reduced row echelon form of a growing set of sparse vectors."""

    __slots__ = ("field", "sort_key", "rows")

    def __init__(self, field: Field, sort_key=None):
        self.field = field
        self.sort_key = sort_key
        # rows: list of (pivot, vector, combo); vector is monic at pivot,
        # combo maps inserted labels to scalars with vector = sum of
        # combo[l] * (inserted vector labelled l).
        self.rows = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return [p for p, _, _ in self.rows]

    def _sub_scaled(self, vec: dict, coeff, other: dict) -> None:
        f = self.field
        sub, mul, zero = f.sub, f.mul, f.zero
        for k, c in other.items():
            v = sub(vec.get(k, zero), mul(coeff, c))
            if v:
                vec[k] = v
            else:
                vec.pop(k, None)

    def _reduce(self, vec: dict):
        """Eliminate all pivots from vec.

        Returns (residual, used) with vec = residual + combination whose
        label expansion is `used`.  A single pass suffices because rows
        are kept fully interreduced.
        """
        f = self.field
        vec = {k: c for k, c in vec.items() if c}
        used = {}
        for pivot, row, combo in self.rows:
            c = vec.get(pivot)
            if not c:
                continue
            self._sub_scaled(vec, c, row)
            for label, cc in combo.items():
                v = f.add(used.get(label, f.zero), f.mul(c, cc))
                if v:
                    used[label] = v
                else:
                    used.pop(label, None)
        return vec, used

    def insert(self, vec: dict, label=None):
        """Add a vector to the span.

        Returns None if the span grew, else a dict of coefficients over
        earlier labels expressing vec inside the previous span.
        """
        f = self.field
        residual, used = self._reduce(vec)
        if not residual:
            return used
        pivot = max(residual, key=self.sort_key)
        lead = residual[pivot]
        inv = f.inv(lead)
        row = {k: f.mul(inv, c) for k, c in residual.items()}
        combo = {label: inv} if label is not None else {}
        for l, c in used.items():
            v = f.neg(f.mul(inv, c))
            if l == label:
                v = f.add(combo.get(label, f.zero), v)
            if v:
                combo[l] = v
            else:
                combo.pop(l, None)
        # keep earlier rows clear of the new pivot
        for p_old, row_old, combo_old in self.rows:
            c = row_old.get(pivot)
            if not c:
                continue
            self._sub_scaled(row_old, c, row)
            for l, cc in combo.items():
                v = f.sub(combo_old.get(l, f.zero), f.mul(c, cc))
                if v:
                    combo_old[l] = v
                else:
                    combo_old.pop(l, None)
        self.rows.append((pivot, row, combo))
        return None

    def express(self, vec: dict):
        """Coefficients over inserted labels with vec = sum c_l v_l, or None."""
        residual, used = self._reduce(vec)
        if residual:
            return None
        return used

    def contains(self, vec: dict) -> bool:
        residual, _ = self._reduce(vec)
        return not residual
