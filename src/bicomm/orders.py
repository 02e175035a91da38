"""The two monomial orders used throughout the package.

Weight order: a total order comparing Y-exponent vectors from the highest
index downward (larger exponent at the highest differing index wins), with
ties broken the same way on the Z-exponent vectors.  It is multiplicative
and has no infinite descending chains within any finite variable range, so
it serves both as the Groebner term order and as the termination measure
for reductions.  The weight of an element is its greatest quadratic
monomial under this order.

Embedding order (a Higman-style partial order): Y^a Z^b embeds into
Y^c Z^d when some strictly increasing index map phi sends every exponent
pair (a_i, b_i) onto an index whose pair dominates it componentwise.  The
same map acts on both alphabets, so the y/z exponents at one index travel
together.
"""

from __future__ import annotations

from .errors import NoWeight
from .monomials import Monomial, _exponents


def weight_key(m: Monomial) -> Monomial:
    """Sort key realizing the weight order: bigger key = bigger monomial.

    It is the monomial itself.  A monomial is the packed pair (Y, Z), and
    tuple order is the weight order: higher indices sit in higher bits, so
    comparing Y compares the y-exponents from the highest index down, and
    Z breaks ties the same way.
    """
    return m


def weight_compare(a: Monomial, b: Monomial) -> int:
    """Return -1, 0, or 1 as a <, ==, > b in the weight order."""
    return (a > b) - (a < b)


def weight_of(element):
    """Greatest quadratic monomial of an element and its coefficient.

    Raises NoWeight when the quadratic part is empty; a purely linear
    element has no weight.
    """
    quad = element.quad
    if quad.is_zero:
        raise NoWeight("element has an empty quadratic part")
    return quad.leading()


def higman_embedding(a: Monomial, b: Monomial):
    """Greedy leftmost embedding of a into b, or None.

    Scans source positions 1..(last nonzero index of a); a position with
    pair (0, 0) consumes the next free target index, while a nonzero pair
    takes the smallest admissible target index at or beyond the cursor
    whose pair dominates it componentwise.  A standard exchange argument
    shows the greedy map succeeds whenever any embedding exists.  Returns
    the map on every scanned position as a dict.
    """
    m, top = a.max_index, b.max_index
    by, bz = _exponents(b[0], top), _exponents(b[1], top)
    phi = {}
    cursor = 1
    for i, need_y, need_z in zip(range(1, m + 1), _exponents(a[0], m), _exponents(a[1], m)):
        if not need_y and not need_z:
            phi[i] = cursor
            cursor += 1
            continue
        t = cursor
        while t <= top and (need_y > by[t - 1] or need_z > bz[t - 1]):
            t += 1
        if t > top:
            return None
        phi[i] = t
        cursor = t + 1
    return phi


def higman_leq(a: Monomial, b: Monomial) -> bool:
    """Decide whether a embeds into b (see higman_embedding)."""
    return higman_embedding(a, b) is not None


def higman_relation(a: Monomial, b: Monomial) -> str:
    """Classify a pair as EQ, LEQ, GEQ, or INCOMPARABLE."""
    if a == b:
        return "EQ"
    if higman_leq(a, b):
        return "LEQ"
    if higman_leq(b, a):
        return "GEQ"
    return "INCOMPARABLE"


def minimal_antichain(monomials) -> list:
    """Embedding-minimal elements of the input, duplicates removed.

    The result is sorted ascending in the weight order so that repeated
    runs produce identical output.  One ascending pass keeps m unless an
    element kept before it embeds into it.

    This is exact because a embeds into b only when a <= b in the weight
    order.  The embedding phi is strictly increasing, so phi(i) >= i,
    and once phi(t) > t, phi(i) > i for every i >= t.  If phi moves the
    highest index t of a's y-support, relabeling raises the top field of
    Y, so Y(a) < Y(phi(a)); otherwise phi fixes that support and
    Y(phi(a)) = Y(a).  As b dominates phi(a) fieldwise,
    Y(phi(a)) <= Y(b); when Y(a) = Y(b) both steps are equalities, and
    the same argument on Z gives Z(a) <= Z(b).  So every element that
    embeds into m and differs from it comes earlier in the pass, and it
    is either kept or has a kept element embedding into it, which then
    embeds into m too.
    """
    out = []
    for m in sorted(set(monomials)):
        if not any(higman_leq(k, m) for k in out):
            out.append(m)
    return out
