"""Commutative monomials in two index-matched families of variables y_i, z_i.

A monomial Y^a Z^b is the pair (Y, Z) of two nonnegative ints, one per
family: Monomial is a tuple, so hashing, equality and ordering run on the
pair itself, and tuple order is the weight order.  The exponent of y_i (of
z_i) sits in the 32-bit field at bit offset 32 * (i - 1) of the first
(second) int.  Exponents stay below 2^31, so the top bit of every field is
a guard bit that is zero in every monomial; indices stay at most 2^20, so
one int takes at most 4 MiB.
Following Bachmann & Schoenemann, *Monomial representations for Groebner
bases computations* (ISSAC 1998), each operation works on whole ints:

* higher indices sit in higher bits, so comparing the pairs (Y, Z) as
  tuples is the weight order (see orders);
* a product adds the pairs, and a guard bit that comes up set means an
  exponent reached 2^31;
* a quotient subtracts them, and self divides other exactly when
  other - self is nonnegative with every guard bit clear, since a field
  that borrows sets its own guard bit;
* an lcm takes the fieldwise maximum through the guard bits.

Products and quotients of monomials come from a trusted constructor; the
public constructor validates its (index, exponent) pairs.  The ys and
zs properties decode the ints into ascending (index, exponent) pairs with
positive exponents.  Mixed monomials (total y-degree and z-degree both at
least 1) form the basis of the square of the free bicommutative algebra;
unrestricted monomials serve as the ambient polynomial ring K[Y, Z].
"""

from __future__ import annotations

import re
import struct

from .errors import InvalidIndexMap, ParseError

_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 1)  # exponents stay below the guard bit
# a monomial at index i takes 4 * i bytes, so the index is bounded
_MAX_INDEX = 1 << 20

# Guard bits of the fields below bit _guard_bits.  Every monomial is covered:
# the public constructor widens the mask before it packs a higher index,
# and sums, differences and maxima stay within their operands' fields.
# "&" with a nonnegative int costs the smaller operand's size, so one
# module-wide mask serves monomials of every size.
_guard = 0
_guard_bits = 0


def _cover(nbits: int) -> None:
    """Widen the guard mask to the fields of an int of nbits bits, at least
    doubling it, so that indices growing one by one rebuild it rarely."""
    global _guard, _guard_bits
    fields = max(-(-nbits // _WIDTH), 2 * _guard_bits // _WIDTH)
    _guard = int.from_bytes(_LIMIT.to_bytes(_WIDTH // 8, "little") * fields, "little")
    _guard_bits = _WIDTH * fields


def _pack(pairs) -> int:
    """Validated packed int of (index, exponent) pairs of ints that are no
    bools; a repeated index adds its exponents."""
    v = 0
    for i, e in pairs:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"variable index must be an int, got {i!r}")
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent must be an int, got {e!r}")
        if e:
            if i < 1:
                raise ValueError(f"variable index must be >= 1, got {i}")
            if i > _MAX_INDEX:
                raise ValueError(f"variable index must be at most 2^20, got {i}")
            if e < 0:
                raise ValueError(f"negative exponent {e} for index {i}")
            shift = _WIDTH * (i - 1)
            if (v >> shift & _FIELD) + e >= _LIMIT:
                raise ValueError(f"exponent of index {i} must stay below 2^31")
            v += e << shift
    return v


def _unpack(v: int) -> tuple:
    """Ascending (index, exponent) pairs of the nonzero fields of v."""
    out = []
    while v:
        shift = ((v & -v).bit_length() - 1) & -_WIDTH  # lowest nonzero field
        e = v >> shift & _FIELD
        out.append((shift // _WIDTH + 1, e))
        v -= e << shift
    return tuple(out)


def _fieldmax(a: int, b: int) -> int:
    """Fieldwise maximum of two packed ints."""
    top = max(a.bit_length(), b.bit_length()) | (_WIDTH - 1)
    g = _guard & ((2 << top) - 1)  # guard bits of the operands' fields
    ge = ((a | g) - b) & g  # guard bit set in the fields where a >= b
    keep = ge - (ge >> (_WIDTH - 1))  # all 31 value bits of those fields
    return b ^ ((a ^ b) & keep)


def _exponents(v: int, n: int) -> tuple:
    """Exponents at indices 1..n of a packed int, at tuple positions
    0..n-1, read in one pass over its bytes."""
    return struct.unpack(f"<{n}I", v.to_bytes(_WIDTH // 8 * n, "little"))


def _relabeler(phi: dict):
    """Function moving the fields of a packed int along phi, a strictly
    increasing map of positive indices defined on every index it uses."""
    moves = [(_WIDTH * (i - 1), _WIDTH * (j - 1)) for i, j in phi.items() if i != j]
    keep = ~sum(_FIELD << s for s, _ in moves)

    def relabel(v: int) -> int:
        out = v & keep
        for s, d in moves:
            out |= (v >> s & _FIELD) << d
        return out

    return relabel


def _support(ms) -> set:
    """Indices at which some monomial of the iterable ms has a nonzero
    exponent."""
    bits = 0
    for y, z in ms:
        bits |= y | z
    return {i for i, _ in _unpack(bits)}


def _admit(ms, q: "Monomial") -> None:
    """Check monomials that the trusted constructor built as products of
    q and relabeled monomials: raise ValueError, in the words of the
    public constructor and of a product, if an index passes 2^20 or an
    exponent reaches 2^31; else widen the guard mask to cover them."""
    bits = 0
    for y, z in ms:
        bits |= y | z
    nbits = bits.bit_length()
    if nbits > _guard_bits:
        top = -(-nbits // _WIDTH)
        if top > _MAX_INDEX:
            raise ValueError(f"variable index must be at most 2^20, got {top}")
        _cover(nbits)
    if bits & _guard:
        raise ValueError(f"exponent of {q} times a relabeled monomial must stay below 2^31")


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


class Monomial(tuple):
    """The packed pair (Y, Z); tuple order is the weight order."""

    __slots__ = ()

    def __new__(cls, ys=(), zs=()):
        y, z = _pack(ys), _pack(zs)
        nbits = max(y.bit_length(), z.bit_length())
        if nbits > _guard_bits:
            _cover(nbits)
        return _new(cls, (y, z))

    # a tuple's concatenation and repetition are no monomial operations
    __add__ = __rmul__ = None

    def __reduce__(self):
        # rebuild through the constructor, which also widens the guard mask
        return Monomial, (self.ys, self.zs)

    @property
    def ys(self) -> tuple:
        return _unpack(self[0])

    @property
    def zs(self) -> tuple:
        return _unpack(self[1])

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
        return not self[0] and not self[1]

    @property
    def is_mixed(self) -> bool:
        return bool(self[0]) and bool(self[1])

    @property
    def max_index(self) -> int:
        return (max(self[0].bit_length(), self[1].bit_length()) + _WIDTH - 1) // _WIDTH

    def indices(self) -> set:
        return _support((self,))

    def pair_at(self, i: int) -> tuple:
        """Exponent pair (y-exponent, z-exponent) at index i."""
        if i < 1:
            return (0, 0)
        shift = _WIDTH * (i - 1)
        return (self[0] >> shift & _FIELD, self[1] >> shift & _FIELD)

    def multidegree(self) -> tuple:
        """Sparse per-index total degree, as ((index, degree), ...)."""
        # two exponents below 2^31 sum below 2^32: no field carries over
        return _unpack(self[0] + self[1])

    def __mul__(self, other: "Monomial") -> "Monomial":
        y = self[0] + other[0]
        z = self[1] + other[1]
        if y & _guard or z & _guard:
            raise ValueError(f"exponent of {self} * {other} must stay below 2^31")
        return _new(Monomial, (y, z))

    def divides(self, other: "Monomial") -> bool:
        d = other[0] - self[0]
        if d < 0 or d & _guard:
            return False
        d = other[1] - self[1]
        return d >= 0 and not d & _guard

    def div(self, other: "Monomial") -> "Monomial":
        """Quotient self / other; other must divide self."""
        y = self[0] - other[0]
        z = self[1] - other[1]
        if y < 0 or z < 0 or y & _guard or z & _guard:
            raise ValueError(f"{other} does not divide {self}")
        return _new(Monomial, (y, z))

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


_new = tuple.__new__


def _monomial(y: int, z: int) -> Monomial:
    """Trusted constructor from packed ints with clear guard bits."""
    return _new(Monomial, (y, z))


ONE = Monomial()

# y_i and z_i for the small indices that linear parts use, built once so that
# products of algebra elements need not build them per call
_SMALL = 64
_Y = (None,) + tuple(Monomial([(i, 1)], []) for i in range(1, _SMALL))
_Z = (None,) + tuple(Monomial([], [(i, 1)]) for i in range(1, _SMALL))


def y_variable(i: int) -> Monomial:
    """The monomial y_i, validated like Monomial([(i, 1)], [])."""
    return _Y[i] if 0 < i < _SMALL else Monomial([(i, 1)], [])


def z_variable(i: int) -> Monomial:
    """The monomial z_i, validated like Monomial([], [(i, 1)])."""
    return _Z[i] if 0 < i < _SMALL else Monomial([], [(i, 1)])

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
