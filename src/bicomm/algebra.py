"""Canonical forms in the free bicommutative algebra.

An algebra element is a linear part (a combination of the generators x_i)
plus a quadratic part living in the span of mixed monomials Y^a Z^b with
|a| >= 1 and |b| >= 1.  The product follows four rules:

    x_i * x_j         -> y_i z_j
    x_i * (Y^a Z^b)   -> y_i Y^a Z^b
    (Y^a Z^b) * x_j   -> Y^a Z^b z_j
    (Y^a Z^b)(Y^c Z^d) -> Y^(a+c) Z^(b+d)

Writing t(f) = sum c_i y_i + quad(f) and s(f) = sum c_i z_i + quad(f) for
f with linear coefficients c_i, every product collapses to the polynomial
identity f * g = t(f) s(g), which is how multiplication is implemented.
The square of the algebra is therefore commutative and associative, and
left/right multiplications by the generators act on it as multiplication
by y_i and z_j.

Unfolded over a tree, the rule gives the slot rule: a lone leaf x_i stays
x_i, and a tree with two or more leaves is one mixed monomial with
coefficient 1, with y_i for each leaf x_i that is the left factor of its
own product and z_i for each right factor: x1*(x2*x3) -> y1 y2 z3.
normalize applies it to trees built in code.  parse_element reads text
without building trees: it applies f * g = t(f) s(g) at each product of
the text, to the normal forms of the two factors.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from . import monomials
from .errors import BadElement, FieldMismatch
from .monomials import Monomial, _monomial, _support, check_index_map, y_variable, z_variable
from .polynomials import Poly, _poly, add_products, format_terms
from .scalars import Field
from .terms import Leaf, NAPolynomial, NATerm, _parse, _symbols, parse_expression


def _check_index(i) -> None:
    """Raise BadElement unless i is an int >= 1 that is no bool."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise BadElement(f"bad generator index {i!r}")


class BicommElement:
    """Canonical form: sparse linear part plus a mixed-monomial polynomial."""

    __slots__ = ("field", "lin", "quad")

    def __init__(self, field: Field, lin=None, quad: Poly | None = None):
        self.field = field
        lin = dict(lin or ())
        for i in lin:
            _check_index(i)
        self.lin = {i: v for i, c in lin.items() if (v := field.canonical(c))}
        if quad is not None and not isinstance(quad, Poly):
            raise BadElement(f"quadratic part must be a Poly, got {quad!r}")
        self.quad = quad if quad is not None else Poly.zero(field)
        if self.quad.field != field:
            raise FieldMismatch("quadratic part uses a different field")
        if not self.quad.is_mixed_only:
            raise BadElement("quadratic part contains a non-mixed monomial")

    def __reduce__(self):
        return BicommElement, (self.field, self.lin, self.quad)

    @classmethod
    def zero(cls, field: Field) -> "BicommElement":
        return cls(field)

    @classmethod
    def generator(cls, field: Field, i: int) -> "BicommElement":
        _check_index(i)
        return _element(field, {i: field.one}, _poly(field, {}))

    @classmethod
    def from_quad(cls, quad: Poly) -> "BicommElement":
        return cls(quad.field, None, quad)

    @property
    def is_zero(self) -> bool:
        return not self.lin and self.quad.is_zero

    def degree(self) -> int:
        if not self.quad.is_zero:
            return self.quad.degree()
        return 1 if self.lin else 0

    def indices(self) -> set:
        return set(self.lin) | _support(self.quad.terms)

    def max_index(self) -> int:
        return max(max(self.lin, default=0), self.quad.max_index())

    def t_poly(self) -> Poly:
        """Linear part as y-variables, plus the quadratic part."""
        terms = {y_variable(i): c for i, c in self.lin.items()}
        return _poly(self.field, terms).add(self.quad)

    def s_poly(self) -> Poly:
        """Linear part as z-variables, plus the quadratic part."""
        terms = {z_variable(i): c for i, c in self.lin.items()}
        return _poly(self.field, terms).add(self.quad)

    def add_scaled(self, coeff, other: "BicommElement") -> "BicommElement":
        self.field.check_same(other.field)
        lin = dict(self.lin)
        self.field.add_into(lin, other.lin.items(), coeff)
        return _element(self.field, lin, self.quad.add_scaled(coeff, other.quad))

    def __add__(self, other):
        return self.add_scaled(self.field.one, other)

    def __sub__(self, other):
        return self.add_scaled(self.field.neg(self.field.one), other)

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, coeff) -> "BicommElement":
        coeff = self.field.canonical(coeff)
        if not coeff:
            return BicommElement.zero(self.field)
        lin = {i: self.field.mul(coeff, c) for i, c in self.lin.items()}
        return _element(self.field, lin, self.quad.scale(coeff))

    def multiply(self, other: "BicommElement") -> "BicommElement":
        """Algebra product; the result always lies in the square.

        Expands t(self) * s(other) term by term without building the two
        polynomials: a linear term x_i of self acts as y_i, a linear term
        x_j of other as z_j.  The four blocks lin*lin, lin*quad, quad*lin
        and quad*quad add into one dict; only lin*lin gives degree 2, so
        its products are distinct and are stored without a lookup.
        """
        field = self.field
        field.check_same(other.field)
        mul = field.mul
        ys = [(y_variable(i), c) for i, c in self.lin.items()]
        zs = [(z_variable(j), c) for j, c in other.lin.items()]
        acc = {y * z: v for y, c1 in ys for z, c2 in zs if (v := mul(c1, c2))}
        quad_l, quad_r = self.quad.terms.items(), other.quad.terms.items()
        if quad_r:
            if ys:
                add_products(field, acc, ys, quad_r)
            if quad_l:
                add_products(field, acc, quad_l, quad_r)
        if quad_l and zs:
            add_products(field, acc, quad_l, zs)
        return _element(field, {}, _poly(field, acc))

    def __mul__(self, other):
        return self.multiply(other)

    def apply_index_map(self, phi: dict) -> "BicommElement":
        quad_indices = (i for m in self.quad.terms for i in m.indices())
        check_index_map(phi, itertools.chain(self.lin, quad_indices))
        lin = {phi[i]: c for i, c in self.lin.items()}
        return BicommElement(self.field, lin, self.quad._relabeled(phi))

    def split_multihomogeneous(self) -> dict:
        """Split into parts with a fixed per-index degree.

        Returns a dict mapping the sparse multidegree ((index, deg), ...)
        to the corresponding part; linear terms get multidegree ((i, 1),).
        """
        parts = {((i, 1),): BicommElement(self.field, {i: c}) for i, c in self.lin.items()}
        quads = {}
        for m, c in self.quad.terms.items():
            quads.setdefault(m.multidegree(), {})[m] = c
        for key, terms in quads.items():
            parts[key] = _element(self.field, {}, _poly(self.field, terms))
        return parts

    def __eq__(self, other):
        return (
            isinstance(other, BicommElement)
            and self.field == other.field
            and self.lin == other.lin
            and self.quad == other.quad
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.lin.items()), self.quad))

    def __str__(self):
        if self.is_zero:
            return "0"
        pairs = self.quad.sorted_terms()
        pairs += [(f"x{i}", self.lin[i]) for i in sorted(self.lin)]
        return format_terms(self.field, pairs)

    def __repr__(self):
        return f"BicommElement({self})"


_new = object.__new__


def _element(field: Field, lin: dict, quad: Poly) -> BicommElement:
    """Trusted constructor: lin (kept, not copied) maps indices >= 1 to
    nonzero coefficients, and quad is a mixed-only Poly over field, as in a
    product."""
    e = _new(BicommElement)
    e.field = field
    e.lin = lin
    e.quad = quad
    return e


def normalize_term(t: NATerm, field: Field) -> BicommElement:
    """Canonical form of a single tree: normalize of the one-term sum."""
    return normalize(NAPolynomial.term(field, t))


def normalize(poly: NAPolynomial) -> BicommElement:
    """Canonical form of a formal combination of trees, in linear time:
    each tree is read off its leaves by the slot rule (module docstring)
    and the coefficients are summed into one dict per part."""
    field = poly.field
    lin_terms, quad_terms = [], []
    for t, c in poly.terms.items():
        if isinstance(t, Leaf):
            lin_terms.append((t.index, c))
        else:
            ys, zs, prev = [], [], None
            for s in _symbols(t):
                if isinstance(s, Leaf):  # a left factor follows '(', a right one '*'
                    (ys if prev == "(" else zs).append((s.index, 1))
                prev = s
            quad_terms.append((Monomial(ys, zs), c))
    lin, quad = {}, {}
    field.add_into(lin, lin_terms)
    field.add_into(quad, quad_terms)
    return _element(field, lin, _poly(field, quad))


class _Unpackable(Exception):
    """A value that packed monomials cannot hold: an index above 2^20 or an
    exponent of 2^31."""


def _packed_product(field: Field, a: dict, b: dict) -> dict:
    """Product of two values of parse_element by f * g = t(f) s(g): a key
    is the index i of a lone x_i, or the packed pair (Y, Z) of a mixed
    monomial.  Distinct pairs of terms can give the same monomial, so all
    of them sum through one add_into call.  A product of two single terms
    sums nothing and is built directly; every product inside a bracketed
    word is one."""
    if len(a) == 1 == len(b):
        ((k1, c1),) = a.items()
        ((k2, c2),) = b.items()
        y1, z1 = y_variable(k1) if type(k1) is int else k1
        y2, z2 = z_variable(k2) if type(k2) is int else k2
        acc = {(y1 + y2, z1 + z2): field.mul(c1, c2)}
    else:
        left = [(y_variable(k) if type(k) is int else k, c) for k, c in a.items()]
        right = [(z_variable(k) if type(k) is int else k, c) for k, c in b.items()]
        acc = {}
        field.add_into(
            acc, (((y1 + y2, z1 + z2), c1 * c2) for (y1, z1), c1 in left for (y2, z2), c2 in right)
        )
    guard = monomials._guard  # read after y_variable and z_variable widened it
    for y, z in acc:
        if (y | z) & guard:
            raise _Unpackable
    return acc


def parse_element(text: str, field: Field) -> BicommElement:
    """normalize(parse_expression(text, field)), evaluated as it is read:
    each product applies t(f) s(g) to the normal forms of its factors, so
    no tree is built.  Input that packed monomials cannot hold (an index
    above 2^20) goes through the trees, which alone can run it: its trees
    may still cancel, and a syntax error after it still wins."""
    one = field.one

    def leaf(i):
        if i > monomials._MAX_INDEX:
            raise _Unpackable
        return {i: one}

    try:
        value = _parse(text, field, leaf, functools.partial(_packed_product, field))
    except _Unpackable:
        return normalize(parse_expression(text, field))
    lin, quad = {}, {}
    for k, c in value.items():
        if type(k) is int:
            lin[k] = c
        else:
            quad[_monomial(*k)] = c
    return _element(field, lin, _poly(field, quad))


def graded_dimension(d: int, n: int) -> int:
    """Dimension of the degree-n component on d generators.

    Degree 1 is spanned by the generators.  For n >= 2 the component is
    spanned by the mixed monomials Y^a Z^b with |a| + |b| = n: all
    degree-n monomials in the 2d variables y_i, z_i, less the pure-y and
    the pure-z ones.
    """
    if d < 0 or n < 1:
        raise ValueError("need d >= 0 and n >= 1")
    if n == 1 or d == 0:
        return d
    return comb(n + 2 * d - 1, 2 * d - 1) - 2 * comb(n + d - 1, d - 1)


def multilinear_dimension(n: int) -> int:
    """Dimension of the span of normal forms of multilinear degree-n trees.

    A multilinear tree normalizes to Y^a Z^b where the index sets of a and
    b partition {1..n} into two nonempty blocks, and every such partition
    occurs; the count is the number of proper nonempty subsets chosen as
    the y-block.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 1
    return 2**n - 2
