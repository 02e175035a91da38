"""Ideal membership via commutative polynomial algebra.

The square of the free algebra is a module over the polynomial ring in
the y and z variables: left multiplication by x_i acts as y_i, right
multiplication as z_i.  Membership questions therefore reduce to ideal
arithmetic in that ring, done here with Groebner bases under the weight
order.

For a two-sided ideal with generators g_k = l_k + p_k (linear plus
quadratic part), products collapse through the rule u*v = t(u)s(v), so
the quadratic slice of the ideal is

    span{p_k adjusted by the linear solve}  +  ideal({y_j s_k, t_k z_j})

with s_k = s(g_k) and t_k = t(g_k).  Pair products t_k s_l never add
anything: the y-linear part of t_k combines the y_j s_l directly, and
every mixed monomial of its quadratic part factors off one y variable,
leaving a polynomial multiple of some y_u s_l.
"""

from __future__ import annotations

import heapq
import math

from . import monomials
from .algebra import BicommElement
from .errors import BadChain, UnsupportedGenerator
from .linalg import Echelon, integral, primitive
from .monomials import Monomial, _monomial, _new, y_variable, z_variable
from .polynomials import Poly, _poly
from .scalars import Field


def _row(pairs, p: int):
    """Integer form of a nonzero polynomial given as (monomial, integer)
    pairs, greatest first: (lead monomial, lead coefficient, tail pairs),
    scaled by linalg.primitive, which Echelon rows share: coprime with a
    positive lead over the rationals (p = 0), monic residues over F_p.
    Polynomials that are scalar multiples of each other get equal forms.
    """
    row = primitive(pairs[0][1], pairs, p)
    lm, lc = row[0]
    return lm, lc, tuple(row[1:])


def _poly_row(d: Poly):
    terms, _ = integral(d.terms, d.field.characteristic)
    pairs = sorted(terms.items(), reverse=True)
    return _row(pairs, d.field.characteristic)


def _emit(field: Field, pairs, d: int) -> Poly:
    """The polynomial sum(c * m) / d of integer (monomial, c) pairs."""
    inv, mul = field.inv(d), field.mul
    return _poly(field, {m: mul(c, inv) for m, c in pairs})


def _reduce(work: dict, rows, p: int, steps: list | None = None):
    """Fully reduce the integer polynomial work (consumed) by integer rows.

    Terms are taken greatest first from a heap, each divided by the first
    row whose lead divides it.  A popped monomial no longer in work (it
    cancelled, or an earlier entry for it was taken) is skipped; it cannot
    come back, since every term that enters after a pop is smaller.

    The divisor scan, the quotient and the tail products run on the
    packed ints of the monomials (see monomials), and a guard bit set in
    a product raises ValueError like a product of Monomials.

    Over F_p the rows are monic.  Over the rationals a step whose row
    lead lc does not divide the coefficient a first multiplies work by
    lc / gcd(a, lc); the product of these factors is the returned scale,
    and the remainder pairs (greatest first) are scale times the exact
    remainder.

    With steps, a list, each division step appends (row lead, quotient
    monomial qm, q * lc, scale after the step), where the step subtracts
    q * qm times the row.  If work was d times a polynomial f, the step
    subtracts (q * lc) / (scale * d) * qm times the monic row from f:
    these terms, collected per row, are f's cofactors.
    """
    guard = monomials._guard
    # work may hold plain (Y, Z) tuples, which hash and compare like the
    # Monomials they stand for; the remainder gets Monomials
    heap = [(-m[0], -m[1], m) for m in work]
    heapq.heapify(heap)
    heappop, heappush, gcd = heapq.heappop, heapq.heappush, math.gcd
    rem = []
    scale = 1
    while heap:
        y, z, m = heappop(heap)
        a = work.pop(m, None)
        if a is None:
            continue
        y, z = -y, -z
        for lm, lc, tail in rows:
            qy = y - lm[0]
            if qy >= 0 and not qy & guard:
                qz = z - lm[1]
                if qz >= 0 and not qz & guard:
                    break
        else:
            rem.append((m, a, scale))
            continue
        if lc != 1:
            g = gcd(a, lc)
            if g != lc:
                f = lc // g
                for k in work:
                    work[k] *= f
                scale *= f
            a //= g
        if steps is not None:
            steps.append((lm, _monomial(qy, qz), a * lc, scale))
        for (ty, tz), dc in tail:
            ty += qy
            tz += qz
            if (ty | tz) & guard:
                raise ValueError(f"exponent of {_monomial(qy, qz)} times the tail of {lm} must stay below 2^31")
            key = (ty, tz)
            old = work.get(key)
            if old is None:
                work[key] = -a * dc % p if p else -a * dc
                heappush(heap, (-ty, -tz, key))
                continue
            v = (old - a * dc) % p if p else old - a * dc
            if v:
                work[key] = v
            else:
                del work[key]
    if scale != 1:
        return [(_new(Monomial, m), a * (scale // s)) for m, a, s in rem], scale
    return [(_new(Monomial, m), a) for m, a, _ in rem], 1


def _spair(f, g, lcm, p: int) -> dict:
    """Integer S-polynomial of two rows with lead lcm, a packed pair whose
    leading terms cancel and are left out: a nonzero multiple of
    (lcm / lt(f)) f - (lcm / lt(g)) g, keyed by plain (Y, Z) tuples."""
    y, z = lcm
    (fy, fz), af, tf = f
    (gy, gz), ag, tg = g
    uy, uz, vy, vz = y - fy, z - fz, y - gy, z - gz
    c = math.gcd(af, ag)
    cf, cg = ag // c, af // c
    work = {}
    bits = 0
    for (my, mz), a in tf:
        my += uy
        mz += uz
        bits |= my | mz
        work[my, mz] = cf * a
    for (my, mz), a in tg:
        my += vy
        mz += vz
        bits |= my | mz
        key = (my, mz)
        x = work.get(key, 0) - cg * a
        if p:
            x %= p
        if x:
            work[key] = x
        else:
            work.pop(key, None)
    if bits & monomials._guard:
        raise ValueError(f"exponents of the S-polynomial at {_monomial(y, z)} must stay below 2^31")
    return work


def _shape(row):
    """The coefficients of a row with its monomials as offsets from its
    lead.  Two rows that are one row shifted by two monomials have equal
    shapes, and then their S-polynomial is zero."""
    (ly, lz), lc, tail = row
    return lc, tuple((ly - y, lz - z, c) for (y, z), c in tail)


def poly_normal_form(p: Poly, basis) -> Poly:
    """Remainder of division by a Groebner basis (or any divisor list).

    Terms are divided greatest first, each by the first divisor in list
    order whose leading monomial divides it, so no remainder monomial is
    divisible by a divisor's leading monomial.  The division runs on
    integer forms (see _reduce) with no cofactors kept.
    """
    if isinstance(basis, GroebnerBasis):
        rows = basis._rows
    else:
        rows = [_poly_row(d) for d in basis if not d.is_zero]
    work, d = integral(p.terms, p.field.characteristic)
    rem, scale = _reduce(work, rows, p.field.characteristic)
    return _emit(p.field, rem, d * scale)


class GroebnerBasis:
    """Reduced basis, held as the integer forms (see _row) of its
    elements, mutually irreducible and sorted by leading monomial in
    ascending weight order, so equal ideals give equal objects.

    Reductions read the rows alone.  The monic generators, as Polys, are
    built when generators is first read; iterating reads them too.
    """

    __slots__ = ("field", "_rows", "_generators")

    def __init__(self, field: Field, rows):
        self.field = field
        self._rows = rows
        self._generators = None

    @property
    def generators(self):
        if self._generators is None:
            self._generators = [_emit(self.field, ((lm, lc),) + tail, lc) for lm, lc, tail in self._rows]
        return self._generators

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"GroebnerBasis({[str(g) for g in self.generators]})"


def buchberger(gens, field: Field | None = None, start: GroebnerBasis | None = None) -> GroebnerBasis:
    """Reduced Groebner basis under the weight order.

    With start, the reduced basis of some ideal I, the result is the
    reduced basis of I + (gens).

    Buchberger's algorithm with the Gebauer-Moeller criteria, in the
    UPDATE form of Becker & Weispfenning, *Groebner Bases* (1993).  The
    inputs are installed one by one: over start, which is already closed
    under S-polynomials, each is first reduced by the basis so far and
    dropped if it vanishes.  Installing an element h appends it to the
    basis as an active element and prunes the S-pairs once, there:

    * M and F: of the new pairs (g, h), g active, a pair is dropped when
      the lcm of another new pair divides its lcm; of equal lcms one pair
      is kept, and none if one of them has coprime leading monomials.
      Coprime pairs are never queued: their S-polynomials reduce to zero.
    * B: a pending pair (f, g) is dropped when lm(h) divides its lcm,
      unless that lcm equals the lcm of (f, h) or of (g, h).
    * Active elements whose leading monomial lm(h) divides become
      inactive: they form no more pairs, but stay in the basis and
      reduce like any other.
    * Shifted copies: a pair that M and F keep is not queued when its two
      elements are one row shifted by two monomials (equal _shape),
      because its S-polynomial is exactly zero.  Its lcm still prunes
      the other new pairs under M and F, as if it had been treated.

    Pending pairs are selected by smallest lcm (normal strategy) with
    index tiebreak, and each S-polynomial that does not reduce to zero by
    the whole basis is installed.  The final basis is minimalized,
    interreduced, made monic and sorted, so the result is the unique
    reduced basis of the ideal.

    The pair queue works on packed leading monomials (see monomials): an
    entry (Y, Z, i, j) is the pair i < j whose lcm packs to (Y, Z), so
    the heap order is the weight order of the lcms, and the criteria
    test divisibility and take lcms on the packed ints.  The rest runs
    on integer forms (see _row), fraction-free: over the rationals the
    coefficients stay coprime integers, and the result holds these rows;
    its generators are made monic only when read (see GroebnerBasis).
    """
    polys = [p for p in gens if not p.is_zero]
    if field is None:
        if start is not None:
            field = start.field
        elif not polys:
            raise ValueError("cannot infer the field from an empty input")
        else:
            field = polys[0].field
    if start is not None:
        field.check_same(start.field)
    for p in polys:
        field.check_same(p.field)
    return _groebner(field, [_poly_row(p) for p in polys], start)


def _groebner(field: Field, rows, start: GroebnerBasis | None = None) -> GroebnerBasis:
    """buchberger on nonzero integer rows (see _row) of gens."""
    char = field.characteristic
    basis = list(start._rows) if start is not None else []
    shapes = [_shape(row) for row in basis]
    old = len(basis)
    active = list(range(old))  # a reduced start: no lead divides another
    pairs = []
    seen = set()
    for q in rows:
        if start is not None:
            lm, lc, tail = q
            work = dict(tail)
            work[lm] = lc
            rem, _ = _reduce(work, basis, char)
            if not rem:
                continue
            q = _row(rem, char)
        if q not in seen:
            seen.add(q)
            _install(q, basis, shapes, active, pairs)
    if start is not None and len(basis) == old:
        return GroebnerBasis(field, basis)

    while pairs:
        y, z, i, j = heapq.heappop(pairs)
        r, _ = _reduce(_spair(basis[i], basis[j], (y, z), char), basis, char)
        if r:
            _install(_row(r, char), basis, shapes, active, pairs)

    return GroebnerBasis(field, _reduce_basis(basis, char))


def _install(h, basis: list, shapes: list, active: list, pairs: list) -> None:
    """Append the row h to the basis as an active element, and update the
    pair heap and the active list by the criteria of buchberger."""
    # products, quotients and lcms of covered monomials stay covered, so
    # the mask does not change while the basis grows
    g = monomials._guard
    hy, hz = h[0]
    # lcm(lead i, lm(h)) per index: monomials._fieldmax inlined.  The guard
    # bit of a field of (a | g) - b is set where a >= b, and ge - (ge >> 31)
    # sets the 31 value bits of those fields.
    lcms = []
    for (ly, lz), _, _ in basis:
        ge = ((ly | g) - hy) & g
        y = hy ^ ((ly ^ hy) & (ge - (ge >> 31)))
        ge = ((lz | g) - hz) & g
        lcms.append((y, hz ^ ((lz ^ hz) & (ge - (ge >> 31)))))
    k = len(basis)
    basis.append(h)
    shape = _shape(h)
    shapes.append(shape)
    # criterion B
    kept = []
    for pair in pairs:
        y, z, i, j = pair
        dy, dz = y - hy, z - hz
        if dy < 0 or dz < 0 or dy & g or dz & g or lcms[i] == (y, z) or lcms[j] == (y, z):
            kept.append(pair)
    if len(kept) < len(pairs):
        heapq.heapify(kept)
        pairs[:] = kept
    # new pairs by ascending lcm, coprime ones first among equal lcms;
    # divisibility implies the weight order, so only earlier lcms divide.
    # Elements whose lead lm(h) divides leave the active list.
    new = []
    still = []
    for i in active:
        ly, lz = basis[i][0]
        y, z = lcms[i]
        new.append((y, z, y != ly + hy or z != lz + hz, i))
        dy, dz = ly - hy, lz - hz
        if dy < 0 or dz < 0 or dy & g or dz & g:
            still.append(i)
    still.append(k)
    active[:] = still
    new.sort()
    minimal = []
    for y, z, shared, i in new:
        for my, mz in minimal:  # criteria M and F
            dy, dz = y - my, z - mz
            if dy >= 0 and dz >= 0 and not (dy & g or dz & g):
                break
        else:
            minimal.append((y, z))
            if shared and shapes[i] != shape:
                heapq.heappush(pairs, (y, z, i, k))


def _reduce_basis(basis: list, p: int):
    """Minimalized, interreduced and sorted rows of a Groebner basis."""
    guard = monomials._guard
    kept = []
    for i, row in enumerate(basis):
        y, z = row[0]
        # redundant: another lead divides it, or an earlier one equals it
        for j, ((ly, lz), _, _) in enumerate(basis):
            dy, dz = y - ly, z - lz
            if dy >= 0 and dz >= 0 and not (dy & guard or dz & guard) and (dy or dz or j < i):
                break
        else:
            kept.append(row)
    # leading monomials of a minimal basis are unchanged by tail
    # reduction, so one pass leaves every element reduced.  No term of a
    # row's tail is divisible by its own lead, so each tail is divided by
    # the list as it stands, itself included, with the same steps as by
    # the other rows alone.
    for i, (lm, lc, tail) in enumerate(kept):
        rem, scale = _reduce(dict(tail), kept, p)
        kept[i] = _row([(lm, lc * scale)] + rem, p)
    kept.sort(key=lambda g: g[0])
    return kept


class MembershipResult:
    """Boolean verdict plus a certificate when the element is a member.

    mu: {k: c}, weights of the input generators (matching the linear
    part; empty for one-sided ideals);
    span: {k: c}, weights of the kernel polynomials pi (one-sided: the
    generators' quadratic parts);
    cofactors: list of (i, P), ascending in i, where the polynomial P
    multiplies element i of the reduced module basis at the query's
    variable range (TwoSidedPresentation.data_for_range), whose elements
    are in ascending weight order of their leading monomials.

    Together they rebuild the element: f = sum mu_k g_k plus the
    quadratic element sum span_k pi_k + sum P_i b_i.
    """

    __slots__ = ("member", "mu", "span", "cofactors")

    def __init__(self, member, mu=None, span=None, cofactors=None):
        self.member = member
        self.mu = mu
        self.span = span
        self.cofactors = cofactors

    def __bool__(self):
        return self.member

    def __repr__(self):
        return f"MembershipResult({self.member})"


_SIDES = ("two", "left", "right")


class TwoSidedPresentation:
    """Finite presentation of the ideal generated by elements.

    Two-sided by default; side="left" or "right" presents the one-sided
    ideal with the same machinery.  Stores the kernel polynomials pi and,
    per variable range, a Groebner basis of the module ideal; ranges grow
    on demand when a query element uses higher indices than the
    generators.

    Two-sided: the module ideal is generated by y_j s_k and t_k z_j, and
    pi holds the quadratic parts of the combinations of generators with
    vanishing linear part.  One-sided: generators have no linear part,
    the module ideal is generated by the y_j (left) or z_j (right)
    multiples of their quadratic parts, and pi is those quadratic parts.
    """

    __slots__ = ("field", "generators", "side", "var_range", "lin_echelon", "_cache", "_seeds", "_pi_raw")

    def __init__(self, generators, field: Field | None = None, side: str = "two"):
        if side not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        gens = list(generators)
        if field is None:
            if not gens:
                raise ValueError("cannot infer the field from an empty input")
            field = gens[0].field
        for g in gens:
            field.check_same(g.field)
        self.field = field
        self.generators = gens
        self.side = side
        self.var_range = max([1] + [g.max_index() for g in gens])
        self.lin_echelon = Echelon(field)
        self._cache = {}
        # range -> (basis of a smaller ideal, generators it lacks)
        self._seeds = {}
        self._pi_raw = None

    def extended(self, new_gens) -> "TwoSidedPresentation":
        """Presentation of the ideal with new_gens added.

        Every basis cached (or seeded) at a range the larger ideal still
        uses becomes the start of its new basis, so only S-pairs that
        involve the new module generators are treated.
        """
        new = list(new_gens)
        out = TwoSidedPresentation(self.generators + new, self.field, self.side)
        top = out.var_range
        for d, (start, missing) in self._seeds.items():
            if d >= top:
                out._seeds[d] = (start, missing + new)
        for d, (gb, _, _) in self._cache.items():
            if d >= top:
                out._seeds[d] = (gb, new)
        return out

    def _module_rows(self, gens, d: int) -> list:
        """Generators of the module ideal contributed by gens, indices up
        to d, as distinct integer rows (see _row): the rows of s(g) and
        t(g) (two-sided) or of the quadratic part (one-sided), shifted by
        y_j and z_j.  A shift keeps a row's order and canonical form; it
        adds the packed ints, and a guard bit set in a sum raises
        ValueError like a product of Monomials."""
        out = []
        seen = set()
        ys = [y_variable(j) for j in range(1, d + 1)]
        zs = [z_variable(j) for j in range(1, d + 1)]
        guard = monomials._guard
        for g in gens:
            if self.side == "two":
                parts = [(g.s_poly(), ys), (g.t_poly(), zs)]
            else:
                parts = [(g.quad, ys if self.side == "left" else zs)]
            rows = [(_poly_row(p), shifts) for p, shifts in parts if not p.is_zero]
            for j in range(d):
                for ((ly, lz), lc, tail), shifts in rows:
                    vy, vz = shifts[j]
                    ly += vy
                    lz += vz
                    bits = ly | lz
                    shifted = []
                    for (my, mz), c in tail:
                        my += vy
                        mz += vz
                        bits |= my | mz
                        shifted.append((_new(Monomial, (my, mz)), c))
                    if bits & guard:
                        raise ValueError(f"exponents of the rows shifted by {shifts[j]} must stay below 2^31")
                    q = (_new(Monomial, (ly, lz)), lc, tuple(shifted))
                    if q not in seen:
                        seen.add(q)
                        out.append(q)
        return out

    def _kernel_polys(self):
        """Quadratic parts of the linear-kernel combinations, plus the
        echelon used to solve for linear parts."""
        pi = []
        for k, g in enumerate(self.generators):
            dep = self.lin_echelon.insert(dict(g.lin), label=k)
            if dep is None:
                continue
            p = g.quad
            for l, c in dep.items():
                p = p.add_scaled(self.field.neg(c), self.generators[l].quad)
            pi.append(p)
        return pi

    def data_for_range(self, var_range: int):
        """(module GB, pi list, echelon of pi normal forms) for indices
        up to var_range."""
        d = max(var_range, self.var_range)
        if d in self._cache:
            return self._cache[d]
        if d in self._seeds:
            start, missing = self._seeds.pop(d)
            gb = _groebner(self.field, self._module_rows(missing, d), start)
        else:
            gb = _groebner(self.field, self._module_rows(self.generators, d))
        pi = self.pi
        pi_ech = Echelon(self.field)
        for i, p in enumerate(pi):
            pi_ech.insert(dict(poly_normal_form(p, gb).terms), label=i)
        data = (gb, pi, pi_ech)
        self._cache[d] = data
        return data

    @property
    def pi(self):
        if self._pi_raw is None:
            if self.side == "two":
                self._pi_raw = self._kernel_polys()
            else:
                self._pi_raw = [g.quad for g in self.generators]
        return self._pi_raw


def _decide(f: BicommElement, pres: TwoSidedPresentation):
    """Decide membership of f in the ideal of the presentation: None for
    a non-member, else (mu, span, target, gb) for certifying it.

    Solve the linear part exactly over the generators' linear parts (a
    one-sided presentation has none, so only f without linear part gets
    past this), then test the adjusted quadratic part target against the
    module ideal (basis gb) plus the span of the kernel polynomials.
    """
    field = pres.field
    if pres.side != "two" and any(g.lin for g in pres.generators):
        raise UnsupportedGenerator("one-sided membership needs generators without linear part")
    field.check_same(f.field)
    if f.is_zero:
        return {}, {}, f.quad, None
    if not pres.generators:
        return None
    # make sure the echelon of linear parts is populated
    pres.pi
    mu = pres.lin_echelon.express(dict(f.lin))
    if mu is None:
        return None
    target = f.quad
    for k, c in mu.items():
        target = target.add_scaled(field.neg(c), pres.generators[k].quad)
    gb, _, pi_ech = pres.data_for_range(max(f.max_index(), pres.var_range))
    span = pi_ech.express(dict(poly_normal_form(target, gb).terms))
    if span is None:
        return None
    return mu, span, target, gb


def _member(f: BicommElement, pres: TwoSidedPresentation) -> MembershipResult:
    """Membership of f with a certificate: the target of _decide, less its
    span over the kernel polynomials, divided by the module basis, with
    the cofactors read off the division's step log (see _reduce)."""
    found = _decide(f, pres)
    if found is None:
        return MembershipResult(False)
    mu, span, residue, gb = found
    if residue.is_zero:
        return MembershipResult(True, mu, span, [])
    field = pres.field
    for i, c in span.items():
        residue = residue.add_scaled(field.neg(c), pres.pi[i])
    work, d = integral(residue.terms, field.characteristic)
    steps = []
    rem, _ = _reduce(work, gb._rows, field.characteristic, steps)
    if rem:
        raise AssertionError("division failed to certify a proven member")
    index = {row[0]: i for i, row in enumerate(gb._rows)}
    cofactors = {}
    for lm, qm, q, scale in steps:
        c = field.div(field.from_int(q), field.from_int(scale * d))
        cofactors.setdefault(index[lm], {})[qm] = c
    return MembershipResult(True, mu, span, [(i, _poly(field, cofactors[i])) for i in sorted(cofactors)])


def _member_of(f: BicommElement, gens, side: str) -> MembershipResult:
    """Membership of f in the side's ideal of gens: a list of generators,
    or a presentation built with that side."""
    if isinstance(gens, TwoSidedPresentation):
        if gens.side != side:
            raise ValueError(f"presentation of a {gens.side} ideal, not a {side} one")
        return _member(f, gens)
    elements = list(gens)
    field = elements[0].field if elements else f.field
    return _member(f, TwoSidedPresentation(elements, field, side))


def two_sided_member(f: BicommElement, pres) -> MembershipResult:
    """Decide membership of f in the two-sided ideal of the presentation.

    pres may be a TwoSidedPresentation or a plain list of generators.
    Solve the linear parts exactly, then test the adjusted quadratic part
    against the module ideal plus the span of the kernel polynomials.
    """
    return _member_of(f, pres, "two")


def left_ideal_member(f: BicommElement, gens) -> MembershipResult:
    """Membership in the left ideal generated by quadratic elements.

    Left multiplications only ever multiply by y variables or mixed
    monomials, so the reachable set is the span of the generators plus
    the polynomial ideal of their y-multiples.  gens may also be a
    presentation built with side="left".
    """
    return _member_of(f, gens, "left")


def right_ideal_member(f: BicommElement, gens) -> MembershipResult:
    """Mirror image of left_ideal_member, with z-multiples (side="right")."""
    return _member_of(f, gens, "right")


def chain_stabilization(steps, mode: str = "two"):
    """Index from which an ascending chain of ideals stops growing.

    steps: list of generator lists, cumulative (each step contains the
    previous step's generators).  Returns the smallest index k such that
    every later step's new generators already belong to the ideal built
    so far, or None when growth continues through the final step (the
    list does not certify stabilization).

    One presentation follows the chain: it is kept as it is while the
    ideal does not grow, and extended by the new generators when it does.
    """
    if mode not in _SIDES:
        raise ValueError(f"unknown mode {mode!r}")
    steps = [list(step) for step in steps]
    if not steps:
        return 1
    last_growth = 0
    prev: list = []
    prev_set: set = set()
    pres = None  # presentation of the ideal of prev, built on first use
    for idx, step in enumerate(steps, 1):
        step_set = set(step)
        if not prev_set <= step_set:
            raise BadChain(f"step {idx} drops earlier generators")
        new = [g for g in step if g not in prev_set]
        if idx == 1:
            grew = any(not g.is_zero for g in new)
        elif new:
            if pres is None:
                pres = TwoSidedPresentation(prev, new[0].field, mode)
            grew = any(_decide(g, pres) is None for g in new)
            if grew:
                pres = pres.extended(new)
        else:
            grew = False
        if grew:
            last_growth = idx
        prev = step
        prev_set = step_set
    if last_growth == 0:
        return 1
    if last_growth == len(steps):
        return None
    return last_growth
