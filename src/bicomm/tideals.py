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

from .algebra import BicommElement
from .errors import (
    NotDominated,
    UnsupportedGenerator,
    WindowTooSmall,
    WrongCharacteristic,
)
from .linalg import Echelon
from .monomials import ONE, Monomial
from .orders import higman_embedding, higman_leq, minimal_antichain, weight_of
from .polynomials import Poly, _poly
from .scalars import Field


class Substitution:
    """Assignment of algebra elements to generator indices.

    Unmapped indices default to the generator itself; every stored image
    must be nonzero, since a substitution is an algebra endomorphism
    determined by nonzero generator images.
    """

    __slots__ = ("images",)

    def __init__(self, images=None):
        self.images = {}
        if images:
            for i, v in dict(images).items():
                if v.is_zero:
                    raise ValueError(f"substitution image for x{i} is zero")
                self.images[int(i)] = v

    def image(self, i: int, field: Field) -> BicommElement:
        got = self.images.get(i)
        if got is not None:
            field.check_same(got.field)
            return got
        return BicommElement.generator(field, i)


def _poly_pow(p: Poly, e: int) -> Poly:
    out = _poly(p.field, {ONE: p.field.one})
    for _ in range(e):
        out = out.mul(p)
    return out


def apply_substitution(f: BicommElement, sigma: Substitution) -> BicommElement:
    """Image of f under the endomorphism extending sigma.

    On the quadratic part the map is plain polynomial composition: y_i
    goes to t(sigma(x_i)) and z_i to s(sigma(x_i)), because left and
    right multiplications act through those polynomials.
    """
    field = f.field
    out = BicommElement.zero(field)
    t_cache = {}
    s_cache = {}

    def t_of(i):
        if i not in t_cache:
            t_cache[i] = sigma.image(i, field).t_poly()
        return t_cache[i]

    def s_of(i):
        if i not in s_cache:
            s_cache[i] = sigma.image(i, field).s_poly()
        return s_cache[i]

    for i, c in f.lin.items():
        out = out.add_scaled(c, sigma.image(i, field))
    quad = Poly.zero(field)
    for m, c in f.quad.terms.items():
        prod = _poly(field, {ONE: field.one})
        for i, e in m.ys:
            prod = prod.mul(_poly_pow(t_of(i), e))
        for j, e in m.zs:
            prod = prod.mul(_poly_pow(s_of(j), e))
        quad = quad.add_scaled(c, prod)
    return out + BicommElement.from_quad(quad)


@dataclass(frozen=True)
class ClosureWindow:
    """Degree and variable bounds for the bounded closure computations."""

    max_degree: int = 5
    max_variables: int = 3

    def __post_init__(self):
        if self.max_degree < 1 or self.max_variables < 1:
            raise ValueError("window bounds must be positive")


def _multidegree_key(mu: dict) -> tuple:
    return tuple(sorted((v, d) for v, d in mu.items() if d))


def _iter_multidegrees(nvars: int, max_total: int):
    """All sparse multidegree dicts over variables 1..nvars, total >= 1."""
    for degrees in product(range(max_total + 1), repeat=nvars):
        if 1 <= sum(degrees) <= max_total:
            yield {v: d for v, d in enumerate(degrees, 1) if d}


def _iter_splits(r: dict, mixed_only: bool = False):
    """All monomials Y^a Z^b with a + b equal to the multidegree r."""
    items = sorted(r.items())

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


def _basis_monomial_options(budget: dict):
    """Basis monomials of the free algebra with multidegree below budget.

    Returns (multidegree dict, t-image, s-image) triples: the generator
    x_i maps to (y_i, z_i), a mixed monomial to (itself, itself).
    """
    out = []
    for v in sorted(budget):
        if budget[v] >= 1:
            out.append(({v: 1}, Monomial([(v, 1)], []), Monomial([], [(v, 1)])))
    for total in range(2, sum(budget.values()) + 1):
        for mu in _iter_multidegrees(max(budget), total):
            if sum(mu.values()) != total:
                continue
            if any(mu.get(v, 0) > budget.get(v, 0) for v in mu):
                continue
            for m in _iter_splits(mu, mixed_only=True):
                out.append((mu.copy(), m, m))
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
    add, mul, zero = field.add, field.mul, field.zero
    for d1, block1 in left.items():
        for d2, block2 in right.items():
            d = tuple(map(operator.add, d1, d2))
            if not all(map(operator.le, d, bound)):
                continue
            block = out.setdefault(d, {})
            for k1, p1 in block1.items():
                for k2, p2 in block2.items():
                    key = tuple(sorted(k1 + k2))
                    terms = block.setdefault(key, {})
                    for m1, c1 in p1.items():
                        for m2, c2 in p2.items():
                            m = m1 * m2
                            v = add(terms.get(m, zero), mul(c1, c2))
                            if v:
                                terms[m] = v
                            else:
                                terms.pop(m, None)
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
                    self.components.append((dict(key), part.quad))
        self._echelons = {}

    def bucket(self, mu: dict):
        """Row-reduced span of the closure at multidegree mu, weight-descending.

        With a linear generator this is every mixed monomial of mu.
        Otherwise each multihomogeneous generator part is expanded under
        x_v -> sum_k c_{v,k} b_k, the b_k running over the basis monomials
        below mu, and the expansion is truncated to multidegrees within mu.
        The coefficient of each c-monomial, times every monomial that fills
        its multidegree up to mu, is a row.
        """
        field = self.field
        if field is None:
            return []
        if self.any_linear:
            monos = sorted(_iter_splits(dict(mu), mixed_only=True))
            return [_poly(field, {m: field.one}) for m in reversed(monos)]
        rows = self._echelon(mu).rows
        ordered = sorted(rows, key=lambda r: r[0], reverse=True)
        return [_poly(field, dict(vec)) for _, vec, _ in ordered]

    def _echelon(self, mu: dict) -> Echelon:
        key = _multidegree_key(mu)
        ech = self._echelons.get(key)
        if ech is not None:
            return ech
        mu = dict(key)
        ech = Echelon(self.field)
        variables = range(1, max(mu) + 1)
        bound = tuple(mu.get(v, 0) for v in variables)
        options = [
            (tuple(md.get(v, 0) for v in variables), t_img, s_img)
            for md, t_img, s_img in _basis_monomial_options(mu)
        ]
        for delta, quad in self.components:
            if sum(delta.values()) > sum(bound):
                continue
            for used, block in self._expansion(delta, quad, options, bound).items():
                left = {v: m - u for v, m, u in zip(variables, bound, used) if m > u}
                mults = list(_iter_splits(left))
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

        variables = sorted(delta)
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
            if part.lin or not self._echelon(dict(key)).contains(dict(part.quad.terms)):
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
        key = _multidegree_key(dict(mu))
        return self.buckets.get(key, [])

    def dimensions(self) -> dict:
        return {key: len(rows) for key, rows in sorted(self.buckets.items())}


def t_ideal_closure_bounded(gens, window: ClosureWindow) -> TIdealSpan:
    """Spans of the bounded substitution closure, bucket by multidegree."""
    closure = _BoundedClosure(gens, window)
    buckets = {}
    field = closure.field
    for mu in _iter_multidegrees(window.max_variables, window.max_degree):
        key = _multidegree_key(mu)
        if sum(mu.values()) == 1:
            if closure.any_linear:
                (v,) = mu
                buckets[key] = [BicommElement.generator(field, v)]
            else:
                buckets[key] = []
            continue
        rows = closure.bucket(mu)
        buckets[key] = [BicommElement.from_quad(p) for p in rows]
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
    """
    wt, _ = weight_of(f)
    phi = higman_embedding(wt, target)
    if phi is None:
        raise NotDominated(f"{wt} does not embed into {target}")
    total = {}
    prev = 0
    for i in sorted(f.indices()):
        value = phi.get(i)
        if value is None:
            value = prev + 1
        if value <= prev:
            raise AssertionError("embedding extension failed to increase")
        total[i] = value
        prev = value
    h = f.apply_index_map(total)
    mapped_wt = wt.apply_index_map({i: phi[i] for i in range(1, wt.max_index + 1)})
    q = target.div(mapped_wt)
    if q.ys:
        h = BicommElement.from_quad(h.s_poly().mul_monomial(q))
    elif q.zs:
        h = BicommElement.from_quad(h.t_poly().mul_monomial(q))
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


def _iter_window_multipliers(window: ClosureWindow, max_total: int):
    """All monomials over the window's variables with degree <= max_total."""
    yield Monomial()
    for total in range(1, max_total + 1):
        for mu in _iter_multidegrees(window.max_variables, total):
            if sum(mu.values()) != total:
                continue
            yield from _iter_splits(mu)


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
        room = window.max_degree - g.degree()
        for targets in combinations(range(1, window.max_variables + 1), len(indices)):
            shifted = g.apply_index_map(dict(zip(indices, targets)))
            for mult in _iter_window_multipliers(window, room):
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
    redundant inputs drop out.  The closure span is then enumerated; its
    leading monomials yield the minimal weight antichain.  The verdict
    is true when every leading monomial dominates some kept weight and
    every spanning element reduces to zero, which together force every
    element of the bounded span to reduce to zero.
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
    spanning = spanning_shift_multiples(gens, window)
    ech = Echelon(field)
    for v in spanning:
        ech.insert(dict(v.quad.terms))
    pivots = ech.pivots()
    antichain = minimal_antichain(pivots)
    weights = [weight_of(b)[0] for b in basis]
    covered = all(any(higman_leq(wb, p) for wb in weights) for p in pivots)
    verified = covered and all(specht_reduce(v, basis).is_zero for v in spanning)
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
