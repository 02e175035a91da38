"""Exact scalar arithmetic over the rationals or a prime field.

A :class:`Field` instance interprets plain Python values as field elements.
Over the rationals a scalar is a plain ``int`` or a ``fractions.Fraction``:
``zero``, ``one``, ``from_int``, integer text and the arithmetic of ints give
ints, and a quotient (``inv``, ``div``, ``a/b`` text) gives a ``Fraction``,
also when it is integral.  The two types mix freely, since ``int`` and
``Fraction`` agree on ``==``, ``hash`` and ``str`` for integral values, and
``int`` arithmetic is much cheaper.  Over a prime field the elements are the
canonical residues ``0..p-1`` (plain ints).  All operations are exact; no
floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadElement, DivisionByZero, FieldMismatch, InvalidField


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (``characteristic == 0``) or F_p for a word-size prime.

    ``zero`` and ``one`` are the ints 0 and 1 in every field; the arithmetic
    tests the characteristic directly.
    """

    __slots__ = ("characteristic",)

    zero = 0
    one = 1

    def __init__(self, characteristic: int):
        if characteristic != 0:
            if characteristic >= 1 << 31:
                raise InvalidField(f"modulus too large: {characteristic}")
            if not _is_prime(characteristic):
                raise InvalidField(f"modulus is not prime: {characteristic}")
        self.characteristic = characteristic

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "Field":
        if p == 0:
            raise InvalidField("prime field needs a nonzero modulus")
        return cls(p)

    @classmethod
    def parse(cls, spec: str) -> "Field":
        """Parse a field tag: ``q`` for the rationals, ``fp:P`` for F_P."""
        spec = spec.strip()
        if spec == "q":
            return cls.rationals()
        if spec.startswith("fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise InvalidField(f"bad field spec: {spec!r}") from None
            return cls.prime(p)
        raise InvalidField(f"bad field spec: {spec!r}")

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def from_int(self, n: int):
        p = self.characteristic
        return n % p if p else n

    def canonical(self, a):
        """The element that an int or Fraction a stands for: its residue
        over F_p, a itself over Q.  Any other type, bool included, raises
        BadElement."""
        if type(a) is bool or not isinstance(a, (int, Fraction)):
            raise BadElement(f"coefficient must be an int or a Fraction, got {a!r}")
        p = self.characteristic
        if p and isinstance(a, Fraction):
            return self.div(a.numerator % p, a.denominator % p)
        return a % p if p else a

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def neg(self, a):
        p = self.characteristic
        return -a % p if p else -a

    def mul(self, a, b):
        p = self.characteristic
        return a * b % p if p else a * b

    def inv(self, a):
        if not a:
            raise DivisionByZero("cannot invert zero")
        p = self.characteristic
        if p:
            return pow(a, p - 2, p)
        # a plain int must not reach true division, which gives a float
        return 1 / a if isinstance(a, Fraction) else Fraction(1, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse_scalar(self, text: str):
        """Parse ``a`` or ``a/b`` with an optional leading sign, ``b > 0``."""
        text = text.strip()
        sign = 1
        if text.startswith(("+", "-")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:].strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num, den = int(num_s), int(den_s)
            if den <= 0:
                raise InvalidField(f"denominator must be positive: {text!r}")
            if self.is_rationals:
                return Fraction(sign * num, den)
            return self.div(self.from_int(sign * num), self.from_int(den))
        return self.from_int(sign * int(text))

    def format_scalar(self, a) -> str:
        return str(a)

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatch(f"field mismatch: {self} vs {other}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "Field(q)" if self.is_rationals else f"Field(fp:{self.characteristic})"

    def spec_string(self) -> str:
        return "q" if self.is_rationals else f"fp:{self.characteristic}"
