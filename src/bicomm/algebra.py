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
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import BadElement, FieldMismatch
from .monomials import Monomial, check_index_map, y_variable, z_variable
from .polynomials import Poly, _poly, add_products, format_terms
from .scalars import Field
from .terms import Leaf, NAPolynomial, NATerm, _symbols


class BicommElement:
    """Canonical form: sparse linear part plus a mixed-monomial polynomial."""

    __slots__ = ("field", "lin", "quad")

    def __init__(self, field: Field, lin=None, quad: Poly | None = None):
        self.field = field
        self.lin = {i: v for i, c in dict(lin or ()).items() if (v := field.canonical(c))}
        if self.lin and min(self.lin) < 1:
            raise BadElement(f"bad generator index {min(self.lin)}")
        self.quad = quad if quad is not None else Poly.zero(field)
        if self.quad.field != field:
            raise FieldMismatch("quadratic part uses a different field")
        if not self.quad.is_mixed_only:
            raise BadElement("quadratic part contains a non-mixed monomial")

    @classmethod
    def zero(cls, field: Field) -> "BicommElement":
        return cls(field)

    @classmethod
    def generator(cls, field: Field, i: int) -> "BicommElement":
        return cls(field, {i: field.one})

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
        out = set(self.lin)
        for m in self.quad.terms:
            out |= m.indices()
        return out

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
        for i, c in other.lin.items():
            v = self.field.add(lin.get(i, self.field.zero), self.field.mul(coeff, c))
            if v:
                lin[i] = v
            else:
                lin.pop(i, None)
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
    add, zero = field.add, field.zero
    lin, quad = {}, {}
    for t, c in poly.terms.items():
        if isinstance(t, Leaf):
            acc, key = lin, t.index
        else:
            ys, zs, prev = [], [], None
            for s in _symbols(t):
                if isinstance(s, Leaf):  # a left factor follows '(', a right one '*'
                    (ys if prev == "(" else zs).append((s.index, 1))
                prev = s
            acc, key = quad, Monomial(ys, zs)
        v = add(acc.get(key, zero), c)
        if v:
            acc[key] = v
        else:
            del acc[key]
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
