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
from .monomials import Monomial


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
    m = a.max_index
    top = b.max_index
    ay, az = dict(a.ys), dict(a.zs)
    by, bz = dict(b.ys), dict(b.zs)
    phi = {}
    cursor = 1
    for i in range(1, m + 1):
        need_y, need_z = ay.get(i, 0), az.get(i, 0)
        if not need_y and not need_z:
            phi[i] = cursor
            cursor += 1
            continue
        t = cursor
        while t <= top and not (need_y <= by.get(t, 0) and need_z <= bz.get(t, 0)):
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
    runs produce identical output.
    """
    unique = sorted(set(monomials))
    out = []
    for m in unique:
        if not any(other != m and higman_leq(other, m) for other in unique):
            out.append(m)
    return out
