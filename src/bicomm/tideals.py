"""Substitution-closed ideals: bounded closures, weight lifting, reduction.

Two closure notions live here, both bounded by an explicit window.

The full substitution closure (t_ideal_closure_bounded and
t_ideal_member_bounded) substitutes generic combinations
x_v -> sum_k c_{v,k} b_k of basis monomials b_k for the variables of each
multihomogeneous generator part and keeps every coefficient of the
expansion in the c_{v,k}: the full linearization, which stays correct over
small fields, where scaling tricks are unavailable.  Per multidegree mu
the expansion is computed truncated, dropping terms whose multidegree
leaves mu; each coefficient, times every monomial that fills it up to mu,
is a row, and the rows are reduced per multidegree.

The reduction machinery (lift_weight, specht_reduce,
specht_basis_search) works with the narrower family obtained from
generators by strictly increasing index relabelings followed by monomial
multiplications.  Those are exactly the moves the weight calculus
controls: both preserve leading-monomial bookkeeping, so reduction
terminates and its certificates are meaningful.  The narrower family is
what the basis search enumerates and verifies against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, product

from .algebra import BicommElement, _element
from .errors import (
    BadElement,
    NotDominated,
    UnsupportedGenerator,
    WindowTooSmall,
    WrongCharacteristic,
)
from .linalg import Echelon
from .monomials import ONE, Monomial, _admit, _monomial, _relabeler, y_variable, z_variable
from .orders import higman_embedding, higman_leq, minimal_antichain, weight_of
from .polynomials import Poly, _poly, add_products
from .scalars import Field


class Substitution:
    """Assignment of algebra elements to generator indices.

    Unmapped indices default to the generator itself.  A key must be an
    int >= 1 (not a bool) and an image a nonzero BicommElement, since a
    substitution is an algebra endomorphism determined by nonzero
    generator images.
    """

    __slots__ = ("images",)

    def __init__(self, images=None):
        self.images = {}
        if images:
            for i, v in dict(images).items():
                if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                    raise BadElement(f"substitution index {i!r} is not an integer >= 1")
                if not isinstance(v, BicommElement):
                    raise BadElement(f"substitution image for x{i} is not an element: {v!r}")
                if v.is_zero:
                    raise ValueError(f"substitution image for x{i} is zero")
                self.images[i] = v

    def image(self, i: int, field: Field) -> BicommElement:
        got = self.images.get(i)
        if got is not None:
            field.check_same(got.field)
            return got
        return BicommElement.generator(field, i)


def apply_substitution(f: BicommElement, sigma: Substitution) -> BicommElement:
    """Image of f under the endomorphism extending sigma.

    On the quadratic part the map is plain polynomial composition: y_i
    goes to t(sigma(x_i)) and z_i to s(sigma(x_i)), because left and
    right multiplications act through those polynomials.
    """
    field = f.field
    out = BicommElement.zero(field)
    for i, c in f.lin.items():
        out = out.add_scaled(c, sigma.image(i, field))
    images = {i: sigma.image(i, field) for m in f.quad.terms for i in m.indices()}
    t_of = {i: g.t_poly() for i, g in images.items()}
    s_of = {i: g.s_poly() for i, g in images.items()}
    quad = Poly.zero(field)
    for m, c in f.quad.terms.items():
        prod = _poly(field, {ONE: field.one})
        for polys, pairs in ((t_of, m.ys), (s_of, m.zs)):
            for i, e in pairs:
                for _ in range(e):
                    prod = prod.mul(polys[i])
        quad = quad.add_scaled(c, prod)
    return out + BicommElement.from_quad(quad)


@dataclass(frozen=True)
class ClosureWindow:
    """Degree and variable bounds for the bounded closure computations."""

    max_degree: int = 5
    max_variables: int = 3

    def __post_init__(self):
        for bound in (self.max_degree, self.max_variables):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise ValueError(f"window bounds must be ints, got {bound!r}")
        if self.max_degree < 1 or self.max_variables < 1:
            raise ValueError("window bounds must be positive")


def _multidegrees(bound: tuple, max_total: int) -> list:
    """Degree tuples over the variables 1..len(bound), each entry at most
    its bound and the total at most max_total, in lexicographic order;
    the first is all zeros."""
    return [d for d in product(*(range(b + 1) for b in bound)) if sum(d) <= max_total]


def _iter_splits(degrees: tuple, mixed_only: bool = False):
    """All monomials Y^a Z^b with a + b equal to degrees, a tuple over the
    variables 1..len(degrees)."""
    items = [(v, d) for v, d in enumerate(degrees, 1) if d]

    def rec(pos, ys, zs):
        if pos == len(items):
            if mixed_only and (not ys or not zs):
                return
            yield Monomial(ys, zs)
            return
        v, d = items[pos]
        for t in range(d + 1):
            ny = ys + [(v, t)] if t else ys
            nz = zs + [(v, d - t)] if d - t else zs
            yield from rec(pos + 1, ny, nz)

    yield from rec(0, [], [])


def _basis_monomial_options(bound: tuple) -> list:
    """Basis monomials of the free algebra with multidegree at most bound.

    Returns (multidegree, t-image, s-image) triples, the multidegree a
    tuple over the variables 1..len(bound) like bound: the generator x_v
    maps to (y_v, z_v), a mixed monomial to (itself, itself).  Mixed
    monomials come in ascending total degree.
    """
    out = []
    for v, b in enumerate(bound, 1):
        if b:
            unit = tuple(int(u == v) for u in range(1, len(bound) + 1))
            out.append((unit, y_variable(v), z_variable(v)))
    for degrees in sorted(_multidegrees(bound, sum(bound)), key=sum):
        out += [(degrees, m, m) for m in _iter_splits(degrees, mixed_only=True)]
    return out


def _truncated_mul(field: Field, left: dict, right: dict, bound: tuple, out=None) -> dict:
    """Product of two truncated expansions, added into out when given.

    A truncated expansion is a polynomial in extra indeterminates c whose
    coefficients are polynomials in Y, Z, grouped by multidegree.  It maps
    a multidegree, a tuple over the variables 1..len(bound), to a dict
    from c-monomials, sorted tuples of the indeterminates' labels, to
    their coefficients, dicts Monomial -> scalar of that multidegree.
    Products whose multidegree exceeds bound somewhere are dropped.
    """
    if out is None:
        out = {}
    for d1, block1 in left.items():
        for d2, block2 in right.items():
            d = tuple(map(operator.add, d1, d2))
            if not all(map(operator.le, d, bound)):
                continue
            block = out.setdefault(d, {})
            for k1, p1 in block1.items():
                for k2, p2 in block2.items():
                    key = tuple(sorted(k1 + k2))
                    add_products(field, block.setdefault(key, {}), p1.items(), p2.items())
    return out


class _BoundedClosure:
    """Bucketed spans of the full bounded substitution closure.

    Each bucket is kept as its Echelon, built on first use, so that
    membership queries reduce against it instead of rebuilding it.
    """

    def __init__(self, gens, window: ClosureWindow, field: Field | None = None):
        self.window = window
        gens = [g for g in gens if not g.is_zero]
        if field is None and gens:
            field = gens[0].field
        self.field = field
        self.any_linear = False
        self.components = []
        for g in gens:
            if field is not None:
                field.check_same(g.field)
            if g.degree() > window.max_degree:
                raise WindowTooSmall(
                    f"generator of degree {g.degree()} exceeds the window"
                )
            for key, part in sorted(g.split_multihomogeneous().items()):
                if part.lin:
                    self.any_linear = True
                else:
                    self.components.append((key, part.quad))
        self._echelons = {}

    def _echelon(self, key: tuple) -> Echelon:
        """Row-reduced span of the closure at the sparse multidegree key.

        Each multihomogeneous generator part is expanded under
        x_v -> sum_k c_{v,k} b_k, the b_k running over the basis monomials
        below the multidegree, and the expansion is truncated to
        multidegrees within it.  The coefficient of each c-monomial, times
        every monomial that fills its multidegree up to the bucket's, is a
        row.
        """
        ech = self._echelons.get(key)
        if ech is not None:
            return ech
        ech = Echelon(self.field)
        degrees = dict(key)
        bound = tuple(degrees.get(v, 0) for v in range(1, key[-1][0] + 1))
        options = _basis_monomial_options(bound)
        for delta, quad in self.components:
            if sum(d for _, d in delta) > sum(bound):
                continue
            for used, block in self._expansion(delta, quad, options, bound).items():
                mults = list(_iter_splits(tuple(map(operator.sub, bound, used))))
                for elem in filter(None, block.values()):
                    for mult in mults:
                        ech.insert({m * mult: c for m, c in elem.items()})
        self._echelons[key] = ech
        return ech

    def _expansion(self, delta, quad, options, bound) -> dict:
        """Truncated expansion of one multihomogeneous generator part.

        Under x_v -> sum_k c_{v,k} b_k, y_v becomes the sum of the
        c_{v,k} t(b_k) and z_v the sum of the c_{v,k} s(b_k).  Each power
        of these sums is expanded by repeated multiplication, once per
        (v, a, b), so the multinomial coefficients, including those that
        vanish in positive characteristic, come out of the arithmetic.
        The result is grouped as in _truncated_mul; a coefficient may be
        zero (an empty dict).
        """
        field = self.field
        origin = (0,) * len(bound)
        unit = {origin: {(): {Monomial(): field.one}}}
        powers = {}

        def power(v, a, b):
            """(sum_k c_{v,k} t(b_k))^a (sum_k c_{v,k} s(b_k))^b, truncated."""
            if not a and not b:
                return unit
            got = powers.get((v, a, b))
            if got is None:
                prev, side = (power(v, a, b - 1), 2) if b else (power(v, a - 1, 0), 1)
                linear = {}
                for k, opt in enumerate(options):
                    linear.setdefault(opt[0], {})[((v, k),)] = {opt[side]: field.one}
                got = powers[(v, a, b)] = _truncated_mul(field, prev, linear, bound)
            return got

        variables = [v for v, _ in delta]
        out = {}
        for w, cw in quad.terms.items():
            ys, zs = dict(w.ys), dict(w.zs)
            prod = {origin: {(): {Monomial(): cw}}}
            for v in variables:
                factor = power(v, ys.get(v, 0), zs.get(v, 0))
                last = v == variables[-1]
                prod = _truncated_mul(field, prod, factor, bound, out if last else None)
        return out

    def contains(self, f: BicommElement) -> bool:
        if f.is_zero or self.any_linear:
            return True
        if self.field is None:
            return False
        for key, part in sorted(f.split_multihomogeneous().items()):
            if part.lin or not self._echelon(key).contains(part.quad.terms):
                return False
        return True


class TIdealSpan:
    """Bounded closure presented per multidegree as row-reduced lists."""

    __slots__ = ("window", "field", "buckets")

    def __init__(self, window: ClosureWindow, field, buckets):
        self.window = window
        self.field = field
        self.buckets = buckets

    def component(self, mu) -> list:
        key = tuple(sorted((v, d) for v, d in dict(mu).items() if d))
        return self.buckets.get(key, [])

    def dimensions(self) -> dict:
        return {key: len(rows) for key, rows in sorted(self.buckets.items())}


def t_ideal_closure_bounded(gens, window: ClosureWindow) -> TIdealSpan:
    """Spans of the bounded substitution closure, bucket by multidegree.

    Each bucket is row-reduced and weight-descending.  With a linear
    generator the closure holds everything: x_v at degree one and every
    mixed monomial above.  Otherwise a bucket holds the rows of its
    echelon, which are none at degree one.
    """
    closure = _BoundedClosure(gens, window)
    field = closure.field
    top = window.max_degree
    buckets = {}
    for degrees in _multidegrees((top,) * window.max_variables, top)[1:]:
        key = tuple((v, d) for v, d in enumerate(degrees, 1) if d)
        if not closure.any_linear:
            rows = sorted(closure._echelon(key).rows, key=lambda r: r[0], reverse=True)
            polys = [dict(vec) for _, vec, _ in rows]
        elif sum(degrees) > 1:
            monos = sorted(_iter_splits(degrees, mixed_only=True), reverse=True)
            polys = [{m: field.one} for m in monos]
        else:
            buckets[key] = [BicommElement.generator(field, key[0][0])]
            continue
        buckets[key] = [BicommElement.from_quad(_poly(field, p)) for p in polys]
    return TIdealSpan(window, field, buckets)


def t_ideal_member_bounded(f: BicommElement, gens, window: ClosureWindow) -> bool:
    """Window-complete membership test in the substitution closure.

    Complete within the window because the closure span is the direct
    sum of its multidegree components, so f belongs exactly when each of
    its multihomogeneous parts lies in the matching component.
    """
    if f.degree() > window.max_degree or f.max_index() > window.max_variables:
        raise WindowTooSmall("element does not fit in the window")
    closure = _BoundedClosure(gens, window, field=f.field)
    return closure.contains(f)


def lift_weight(f: BicommElement, target: Monomial) -> BicommElement:
    """Element of the substitution closure of f with weight exactly target.

    Relabel f along the greedy embedding of wt(f) into target, giving h,
    and let q be target over the relabeled weight.  Left multiplications
    by x_k for the y_k of q and right ones for its z_k collapse, by
    f * g = t(f) s(g), to one product: q s(h) when q has a y factor,
    q t(h) when it has only z factors, and h when q = 1.  The weight is
    then target and the leading coefficient that of f.  A linear term x_i
    of f, though, becomes z_i q or y_i q (relabeled), which can outrank
    target; then UnsupportedGenerator is raised, naming that term.

    The work runs on packed ints: each term of the relabeled f moves its
    fields and adds q.  Relabeling and shifting are injective, and a
    linear term lands on y_j q or z_j q, which is no shifted mixed term,
    so no two terms meet.
    """
    wt, _ = weight_of(f)
    phi = higman_embedding(wt, target)
    if phi is None:
        raise NotDominated(f"{wt} does not embed into {target}")
    total = {}
    prev = 0
    for i in sorted(f.indices()):
        value = phi.get(i, prev + 1)
        if value <= prev:
            raise AssertionError("embedding extension failed to increase")
        total[i] = prev = value
    relabel = _relabeler(total)
    q = target.div(_monomial(relabel(wt[0]), relabel(wt[1])))
    qy, qz = q
    lin, terms = {}, {}
    if q.is_unit:
        lin = {total[i]: c for i, c in f.lin.items()}
    else:
        var = z_variable if qy else y_variable
        for i, c in f.lin.items():
            terms[var(total[i]) * q] = c
    for (y, z), c in f.quad.terms.items():
        terms[_monomial(relabel(y) + qy, relabel(z) + qz)] = c
    _admit(terms, q)
    h = _element(f.field, lin, _poly(f.field, terms))
    w = weight_of(h)[0]
    if w != target:
        # only the image of a linear term can outrank target
        k = w.div(q).max_index
        i = next(i for i, v in total.items() if v == k)
        raise UnsupportedGenerator(
            f"linear term x{i} of the generator lifts to {w}, which outranks the target {target}"
        )
    return h


def specht_reduce(g: BicommElement, basis, trace=None) -> BicommElement:
    """Reduce the quadratic part of g against lifted basis elements.

    At each pass the current weight is recorded in trace (when given),
    then the first basis element whose weight embeds into it is lifted
    to that exact weight and subtracted with the cancelling ratio.  The
    weight strictly decreases every pass, so the loop terminates; it
    stops when no basis weight embeds.  The trace therefore lists one
    weight per pass, including the final pass that found no reducer.
    """
    field = g.field
    active = []
    for b in basis:
        field.check_same(b.field)
        if not b.quad.is_zero:
            active.append((weight_of(b)[0], b))
    work = g
    while not work.quad.is_zero:
        w, nu = weight_of(work)
        if trace is not None:
            trace.append(w)
        chosen = None
        for wb, b in active:
            if higman_leq(wb, w):
                chosen = b
                break
        if chosen is None:
            break
        h = lift_weight(chosen, w)
        mu = weight_of(h)[1]
        work = work.add_scaled(field.neg(field.div(nu, mu)), h)
        if not work.quad.is_zero and weight_of(work)[0] >= w:
            raise AssertionError("reduction failed to decrease the weight")
    return work


def spanning_shift_multiples(gens, window: ClosureWindow) -> list:
    """Shifted monomial multiples of the generators within the window.

    These elements span the part of the closure that the reduction
    machinery manipulates directly: each is a strictly increasing
    relabeling of a generator times a monomial.
    """
    out = []
    for g in gens:
        if g.is_zero:
            continue
        if g.lin:
            raise UnsupportedGenerator(
                "spanning enumeration needs generators without linear part"
            )
        if g.degree() > window.max_degree:
            raise WindowTooSmall("generator degree exceeds the window")
        indices = sorted(g.indices())
        if len(indices) > window.max_variables:
            raise WindowTooSmall("generator uses more variables than the window")
        # every monomial of degree at most room, ascending in the degree
        room = window.max_degree - g.degree()
        degrees = sorted(_multidegrees((room,) * window.max_variables, room), key=sum)
        mults = [m for d in degrees for m in _iter_splits(d)]
        for targets in combinations(range(1, window.max_variables + 1), len(indices)):
            shifted = g.apply_index_map(dict(zip(indices, targets)))
            for mult in mults:
                if mult.is_unit:
                    out.append(shifted)
                else:
                    out.append(BicommElement.from_quad(shifted.quad.mul_monomial(mult)))
    return out


class SpechtSearchResult:
    """Candidate basis with its weight antichain and the window verdict."""

    __slots__ = ("basis", "antichain", "verified")

    def __init__(self, basis, antichain, verified):
        self.basis = basis
        self.antichain = antichain
        self.verified = verified

    def __repr__(self):
        state = "verified" if self.verified else "unverified"
        return f"SpechtSearchResult({len(self.basis)} elements, {state})"


def specht_basis_search(gens, window: ClosureWindow) -> SpechtSearchResult:
    """Select a small basis and verify it against the bounded closure.

    Generators are reduced against the elements already kept, so
    redundant inputs drop out.  The spanning shift multiples are then
    inserted into one echelon; its pivots yield the minimal weight
    antichain, and the multiples that enlarged it form a basis of the
    span.  The verdict is true when each of those reduces to zero.

    That decides the whole span: at weight w, specht_reduce always
    subtracts one fixed lift h_w, and the h_w have distinct leading
    weights, so an element reduces to zero exactly when it lies in the
    span of the h_w, a linear condition that holds on the span when it
    holds on a basis.  It also makes every pivot, the leading weight of
    some element that reduced to zero, dominate a kept weight.
    """
    # relabel each generator onto x1..xk; a strictly increasing map keeps
    # the T-ideal, and lets the kept weights embed into the closure pivots
    gens = [
        g.apply_index_map({i: n for n, i in enumerate(sorted(g.indices()), 1)})
        for g in gens
        if not g.is_zero
    ]
    if not gens:
        return SpechtSearchResult([], [], True)
    field = gens[0].field
    basis = []
    for g in gens:
        r = specht_reduce(g, basis)
        if not r.is_zero:
            basis.append(r)
    ech = Echelon(field)
    grew = [v for v in spanning_shift_multiples(gens, window) if ech.insert(v.quad.terms) is None]
    antichain = minimal_antichain(ech.pivots())
    verified = all(specht_reduce(v, basis).is_zero for v in grew)
    return SpechtSearchResult(basis, antichain, verified)


def char_zero_two_variable_heuristic(gens, window: ClosureWindow | None = None) -> list:
    """Try to rewrite each generator in at most two variables.

    Over the rationals, a two-row symmetry argument lets identity
    systems be compared inside the two-generated free algebra; the
    heuristic substitutes the first two generators for the variables of
    each generator and keeps a candidate whose bounded closure matches.
    Generators with no exact two-variable equivalent pass through
    unchanged.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    field = gens[0].field
    if not field.is_rationals:
        raise WrongCharacteristic("the two-variable projection needs rationals")
    max_degree = max(5, max(g.degree() for g in gens))
    if window is None:
        window = ClosureWindow(max_degree, 2)
    else:
        window = ClosureWindow(max(window.max_degree, max_degree), 2)
    out = []
    for g in gens:
        if g.max_index() <= 2:
            out.append(g)
            continue
        variables = sorted(g.indices())
        reference = None
        found = None
        candidates = []
        seen = set()
        for pattern in product((1, 2), repeat=len(variables)):
            sigma = Substitution(
                {
                    v: BicommElement.generator(field, a)
                    for v, a in zip(variables, pattern)
                }
            )
            c = apply_substitution(g, sigma)
            if c.is_zero or c in seen:
                continue
            seen.add(c)
            candidates.append(c)
        for c in candidates:
            if reference is None:
                reference = t_ideal_closure_bounded([g], window).buckets
            if t_ideal_closure_bounded([c], window).buckets == reference:
                found = c
                break
        out.append(found if found is not None else g)
    return out
