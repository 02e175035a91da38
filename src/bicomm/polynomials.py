"""Sparse polynomials over the y/z variables with exact coefficients."""

from __future__ import annotations

from .errors import BadElement
from .monomials import ONE, Monomial, check_index_map
from .orders import weight_key
from .scalars import Field


class Poly:
    """A polynomial in K[Y, Z], stored as a dict Monomial -> coefficient.

    The constructor accepts only Monomial keys and canonical coefficients
    (Field.canonical), and raises BadElement otherwise.  Zero
    coefficients are never stored: the constructor drops them, and
    every sum accumulates through Field.add_into.  Instances are treated as
    immutable by convention: all operations return new polynomials, and
    the leading term and the hash are cached on first use.  Copies and
    pickles rebuild through the constructor, so no cached hash travels to
    another process.
    """

    __slots__ = ("field", "terms", "_lead", "_hash")

    def __init__(self, field: Field, terms=None):
        self.field = field
        terms = dict(terms or ())
        for m in terms:
            if not isinstance(m, Monomial):
                raise BadElement(f"polynomial term key must be a Monomial, got {m!r}")
        self.terms = {m: v for m, c in terms.items() if (v := field.canonical(c))}
        self._lead = None
        self._hash = None

    def __reduce__(self):
        return Poly, (self.field, self.terms)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def monomial(cls, field: Field, m: Monomial, coeff=None) -> "Poly":
        c = field.one if coeff is None else coeff
        return cls(field, {m: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_mixed_only(self) -> bool:
        return all(m.is_mixed for m in self.terms)

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def max_index(self) -> int:
        return max((m.max_index for m in self.terms), default=0)

    def leading(self):
        """Greatest (monomial, coefficient) pair under the weight order."""
        lead = self._lead
        if lead is None:
            m = max(self.terms, key=weight_key)
            lead = self._lead = (m, self.terms[m])
        return lead

    def sorted_terms(self) -> list:
        """Terms as (monomial, coefficient), weight-descending."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=weight_key, reverse=True)]

    def add(self, other: "Poly") -> "Poly":
        self.field.check_same(other.field)
        acc = dict(self.terms)
        self.field.add_into(acc, other.terms.items())
        return _poly(self.field, acc)

    def add_scaled(self, coeff, other: "Poly") -> "Poly":
        self.field.check_same(other.field)
        if not coeff:
            return self
        acc = dict(self.terms)
        self.field.add_into(acc, other.terms.items(), coeff)
        return _poly(self.field, acc)

    def scale(self, coeff) -> "Poly":
        coeff = self.field.canonical(coeff)
        if not coeff:
            return Poly.zero(self.field)
        mul = self.field.mul
        return _poly(self.field, {m: mul(coeff, c) for m, c in self.terms.items()})

    def mul_monomial(self, m: Monomial, coeff=None) -> "Poly":
        c = self.field.one if coeff is None else self.field.canonical(coeff)
        if not c:
            return Poly.zero(self.field)
        mul = self.field.mul
        return _poly(self.field, {mm * m: mul(c, cc) for mm, cc in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        self.field.check_same(other.field)
        acc = {}
        add_products(self.field, acc, self.terms.items(), other.terms.items())
        return _poly(self.field, acc)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        _, c = self.leading()
        return self.scale(self.field.inv(c))

    def apply_index_map(self, phi: dict) -> "Poly":
        check_index_map(phi, (i for m in self.terms for i in m.indices()))
        return self._relabeled(phi)

    def _relabeled(self, phi: dict) -> "Poly":
        """apply_index_map for a phi already checked on these indices."""
        acc = {}
        self.field.add_into(acc, ((m._relabeled(phi), c) for m, c in self.terms.items()))
        return _poly(self.field, acc)

    def coefficient(self, m: Monomial):
        return self.terms.get(m, self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field, frozenset(self.terms.items())))
        return h

    def __str__(self):
        if self.is_zero:
            return "0"
        return format_terms(self.field, self.sorted_terms())

    def __repr__(self):
        return f"Poly({self})"


_new = object.__new__


def _poly(field: Field, terms: dict) -> Poly:
    """Trusted constructor: terms (kept, not copied) holds no zero
    coefficient."""
    p = _new(Poly)
    p.field = field
    p.terms = terms
    p._lead = None
    p._hash = None
    return p


def add_products(field: Field, acc: dict, left, right) -> None:
    """Add the product of two sums given as (monomial, coefficient) pairs
    into the dict acc, dropping the terms that cancel.  right is iterated
    once per left term."""
    add_into = field.add_into
    for m1, c1 in left:
        add_into(acc, ((m1 * m2, c2) for m2, c2 in right), c1)


def format_terms(field: Field, pairs) -> str:
    """Render (monomial-string-able, coefficient) pairs as a signed sum.

    Over the rationals a negative coefficient is shown with a binary
    minus; over a prime field residues are printed as-is.
    """
    chunks = []
    one = field.one
    for m, c in pairs:
        mono = str(m)
        if field.is_rationals and c < 0:
            sign = "-"
            c = -c
        else:
            sign = "+"
        if c == one and mono != "1":
            body = mono
        elif mono == "1":
            body = field.format_scalar(c)
        else:
            body = f"{field.format_scalar(c)}*{mono}"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
