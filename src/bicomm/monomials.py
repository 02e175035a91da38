"""Commutative monomials in two index-matched families of variables y_i, z_i.

A monomial Y^a Z^b is stored sparsely as two tuples of (index, exponent)
pairs, ascending by index, with all exponents positive.  Mixed monomials
(total y-degree and z-degree both at least 1) form the basis of the square
of the free bicommutative algebra; unrestricted monomials serve as the
ambient polynomial ring K[Y, Z].
"""

from __future__ import annotations

import re

from .errors import InvalidIndexMap, ParseError


def _clean(pairs) -> tuple:
    out = [(int(i), int(e)) for i, e in pairs if e]
    out.sort()
    for i, e in out:
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        if e < 0:
            raise ValueError(f"negative exponent {e} for index {i}")
    return tuple(out)


def _merge_add(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def _support(ys: tuple, zs: tuple) -> int:
    """Bitmask of the occurring variables: bit 2i for y_i, bit 2i+1 for z_i."""
    mask = 0
    for i, _ in ys:
        mask |= 1 << (2 * i)
    for i, _ in zs:
        mask |= 2 << (2 * i)
    return mask


def _dominated(small: tuple, big: tuple) -> bool:
    """Whether each exponent of small is at most big's at the same index.

    Both are ascending by index and small's indices occur in big.
    """
    rest = iter(big)
    for i, e in small:
        for j, f in rest:
            if j == i:
                if f < e:
                    return False
                break
    return True


def check_index_map(phi: dict, indices) -> None:
    """Raise InvalidIndexMap unless phi is strictly increasing and defined
    on every index of the iterable indices."""
    items = sorted(phi.items())
    for (i1, j1), (i2, j2) in zip(items, items[1:]):
        if j1 >= j2:
            raise InvalidIndexMap(f"map not strictly increasing at {i1}->{j1}, {i2}->{j2}")
    for i in indices:
        if i not in phi:
            raise InvalidIndexMap(f"index {i} not in the domain of the map")


class Monomial:
    __slots__ = ("ys", "zs", "_hash", "_wkey", "_mask")

    def __init__(self, ys=(), zs=()):
        self.ys = _clean(ys)
        self.zs = _clean(zs)
        self._hash = hash((self.ys, self.zs))
        self._wkey = None
        self._mask = None  # support bitmask, set by the first divides

    @property
    def ydeg(self) -> int:
        return sum(e for _, e in self.ys)

    @property
    def zdeg(self) -> int:
        return sum(e for _, e in self.zs)

    @property
    def degree(self) -> int:
        return self.ydeg + self.zdeg

    @property
    def is_unit(self) -> bool:
        return not self.ys and not self.zs

    @property
    def is_mixed(self) -> bool:
        return bool(self.ys) and bool(self.zs)

    @property
    def max_index(self) -> int:
        top = 0
        if self.ys:
            top = self.ys[-1][0]
        if self.zs:
            top = max(top, self.zs[-1][0])
        return top

    def indices(self) -> set:
        return {i for i, _ in self.ys} | {i for i, _ in self.zs}

    def pair_at(self, i: int) -> tuple:
        """Exponent pair (y-exponent, z-exponent) at index i."""
        return (dict(self.ys).get(i, 0), dict(self.zs).get(i, 0))

    def multidegree(self) -> tuple:
        """Sparse per-index total degree, as ((index, degree), ...)."""
        acc = {}
        for i, e in self.ys:
            acc[i] = acc.get(i, 0) + e
        for i, e in self.zs:
            acc[i] = acc.get(i, 0) + e
        return tuple(sorted(acc.items()))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(_merge_add(self.ys, other.ys), _merge_add(self.zs, other.zs))

    def divides(self, other: "Monomial") -> bool:
        a = self._mask
        if a is None:
            a = self._mask = _support(self.ys, self.zs)
        b = other._mask
        if b is None:
            b = other._mask = _support(other.ys, other.zs)
        if a & ~b:
            return False  # some variable of self does not occur in other
        return _dominated(self.ys, other.ys) and _dominated(self.zs, other.zs)

    def div(self, other: "Monomial") -> "Monomial":
        """Quotient self / other; other must divide self."""
        sy, sz = dict(self.ys), dict(self.zs)
        for i, e in other.ys:
            sy[i] = sy.get(i, 0) - e
        for i, e in other.zs:
            sz[i] = sz.get(i, 0) - e
        return Monomial(sy.items(), sz.items())

    def lcm(self, other: "Monomial") -> "Monomial":
        sy, sz = dict(self.ys), dict(self.zs)
        for i, e in other.ys:
            sy[i] = max(sy.get(i, 0), e)
        for i, e in other.zs:
            sz[i] = max(sz.get(i, 0), e)
        return Monomial(sy.items(), sz.items())

    def apply_index_map(self, phi: dict) -> "Monomial":
        """Rename indices through phi, which must be strictly increasing."""
        check_index_map(phi, self.indices())
        return self._relabeled(phi)

    def _relabeled(self, phi: dict) -> "Monomial":
        """apply_index_map for a phi already checked on these indices."""
        return Monomial(
            ((phi[i], e) for i, e in self.ys),
            ((phi[i], e) for i, e in self.zs),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Monomial) and self.ys == other.ys and self.zs == other.zs
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.is_unit:
            return "1"
        parts = []
        for letter, pairs in (("y", self.ys), ("z", self.zs)):
            for i, e in pairs:
                parts.append(f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial({self})"


ONE = Monomial()

_FACTOR_RE = re.compile(r"([yz])(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str) -> Monomial:
    """Parse the textual form y1^2*y3*z2 into a Monomial."""
    text = text.strip()
    if text == "1":
        return ONE
    ys, zs = {}, {}
    for col, raw in enumerate(text.split("*")):
        m = _FACTOR_RE.match(raw.strip())
        if not m:
            raise ParseError(f"bad monomial factor {raw.strip()!r}", column=col + 1)
        letter, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if idx < 1:
            raise ParseError(f"variable index must be >= 1: {raw.strip()!r}", column=col + 1)
        target = ys if letter == "y" else zs
        target[idx] = target.get(idx, 0) + exp
    return Monomial(ys.items(), zs.items())
