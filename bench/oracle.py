"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports bicomm.  Program outputs are read back from their
printed text (the format the CLI keeps byte-identical) and compared with
values computed from the definitions:

* a monomial is ``(ys, zs)``, each a tuple of ``(index, exponent)`` pairs
  ascending by index, exponents positive;
* a polynomial is a dict monomial -> nonzero coefficient;
* an element of the free bicommutative algebra is ``(lin, quad)``, a dict
  index -> coefficient plus a polynomial in mixed monomials, multiplied by
  the rule ``f * g = t(f) s(g)`` with ``t(f) = sum c_i y_i + quad(f)`` and
  ``s(g) = sum c_i z_i + quad(g)``;
* coefficients are ``Fraction`` over Q (``p == 0``) and residues mod p.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

ONE = ((), ())


# --- scalars -----------------------------------------------------------------


def scalar(p: int, value):
    """Coefficient in Q (p == 0) or F_p from an int, Fraction or text."""
    if isinstance(value, str):
        value = Fraction(value)
    if p == 0:
        return Fraction(value)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, p - 2, p) % p


def _add_into(acc: dict, key, c, p: int) -> None:
    v = acc.get(key, 0) + c
    if p:
        v %= p
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


# --- monomials ---------------------------------------------------------------


def mono_mul(a, b):
    def merge(u, v):
        acc = dict(u)
        for i, e in v:
            acc[i] = acc.get(i, 0) + e
        return tuple(sorted(acc.items()))

    return (merge(a[0], b[0]), merge(a[1], b[1]))


def mono_divides(a, b) -> bool:
    by, bz = dict(b[0]), dict(b[1])
    return all(by.get(i, 0) >= e for i, e in a[0]) and all(bz.get(i, 0) >= e for i, e in a[1])


def mono_div(a, b):
    """a / b for b dividing a."""
    ay, az = dict(a[0]), dict(a[1])
    for i, e in b[0]:
        ay[i] -= e
    for i, e in b[1]:
        az[i] -= e
    return (tuple(sorted((i, e) for i, e in ay.items() if e)),
            tuple(sorted((i, e) for i, e in az.items() if e)))


def mono_degree(m) -> int:
    return sum(e for _, e in m[0]) + sum(e for _, e in m[1])


def mono_max_index(m) -> int:
    return max([i for i, _ in m[0]] + [i for i, _ in m[1]] + [0])


def mono_str(m) -> str:
    if m == ONE:
        return "1"
    parts = []
    for letter, pairs in (("y", m[0]), ("z", m[1])):
        for i, e in pairs:
            parts.append(f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}")
    return "*".join(parts)


def weight_key(m, top: int) -> tuple:
    """Dense key of the weight order: y exponents from index ``top`` down to
    1, then z exponents the same way; a larger key is a larger monomial."""
    ys, zs = dict(m[0]), dict(m[1])
    return tuple(ys.get(i, 0) for i in range(top, 0, -1)) + tuple(
        zs.get(i, 0) for i in range(top, 0, -1)
    )


def weight_cmp(a, b) -> int:
    top = max(mono_max_index(a), mono_max_index(b))
    ka, kb = weight_key(a, top), weight_key(b, top)
    return (ka > kb) - (ka < kb)


def embeds(a, b) -> bool:
    """Brute-force embedding order: some strictly increasing map sends every
    exponent pair of a onto an index whose pair dominates it."""
    m, top = mono_max_index(a), mono_max_index(b)
    ay, az, by, bz = dict(a[0]), dict(a[1]), dict(b[0]), dict(b[1])
    for images in itertools.combinations(range(1, top + 1), m):
        if all(
            ay.get(i, 0) <= by.get(t, 0) and az.get(i, 0) <= bz.get(t, 0)
            for i, t in zip(range(1, m + 1), images)
        ):
            return True
    return False


def higman_relation(a, b) -> str:
    if a == b:
        return "EQ"
    ab, ba = embeds(a, b), embeds(b, a)
    if ab:
        return "LEQ"
    if ba:
        return "GEQ"
    return "INCOMPARABLE"


def minimal_antichain(monos) -> list:
    unique = sorted(set(monos), key=lambda m: weight_key(m, 16))
    return [m for m in unique if not any(o != m and embeds(o, m) for o in unique)]


def mixed_monomials(d: int, n: int) -> set:
    """Every Y^a Z^b over indices 1..d with |a|, |b| >= 1 and |a|+|b| = n."""
    out = set()
    slots = [("y", i) for i in range(1, d + 1)] + [("z", i) for i in range(1, d + 1)]
    for combo in itertools.combinations_with_replacement(slots, n):
        ys, zs = {}, {}
        for letter, i in combo:
            target = ys if letter == "y" else zs
            target[i] = target.get(i, 0) + 1
        if ys and zs:
            out.add((tuple(sorted(ys.items())), tuple(sorted(zs.items()))))
    return out


def hilbert(d: int, n: int) -> int:
    return d if n == 1 else len(mixed_monomials(d, n))


def codim(n: int) -> int:
    if n == 1:
        return 1
    return sum(1 for mask in range(2**n) if 0 < mask < 2**n - 1)


def multidegree(m) -> tuple:
    acc = {}
    for i, e in m[0] + m[1]:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


# --- polynomials and elements ------------------------------------------------


def poly_add(f: dict, g: dict, p: int, scale=1) -> dict:
    out = dict(f)
    for m, c in g.items():
        _add_into(out, m, scale * c, p)
    return out


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            _add_into(out, mono_mul(m1, m2), c1 * c2, p)
    return out


def leading(f: dict):
    top = max(mono_max_index(m) for m in f)
    return max(f, key=lambda m: weight_key(m, top))


def t_poly(e, p: int) -> dict:
    return poly_add({(((i, 1),), ()): c for i, c in e[0].items()}, e[1], p)


def s_poly(e, p: int) -> dict:
    return poly_add({((), ((i, 1),)): c for i, c in e[0].items()}, e[1], p)


def elem_mul(f, g, p: int):
    return ({}, poly_mul(t_poly(f, p), s_poly(g, p), p))


def elem_add(f, g, p: int, scale=1):
    lin = dict(f[0])
    for i, c in g[0].items():
        _add_into(lin, i, scale * c, p)
    return (lin, poly_add(f[1], g[1], p, scale))


def generator(i: int):
    return ({i: 1}, {})


def eval_tree(tree, p: int):
    """Normal form of a tree: an int leaf index or a (left, right) pair."""
    if isinstance(tree, int):
        return generator(tree)
    return elem_mul(eval_tree(tree[0], p), eval_tree(tree[1], p), p)


def tree_text(tree) -> str:
    """Fully bracketed input syntax of a tree."""
    if isinstance(tree, int):
        return f"x{tree}"

    def wrap(t):
        return tree_text(t) if isinstance(t, int) else f"({tree_text(t)})"

    return f"{wrap(tree[0])}*{wrap(tree[1])}"


def word_tree(m):
    """A bracketed word whose normal form is the mixed monomial m:
    x_a * x_b gives y_a z_b, left factors add y's, right factors add z's."""
    ys = [i for i, e in m[0] for _ in range(e)]
    zs = [i for i, e in m[1] for _ in range(e)]
    tree = (ys[-1], zs[0])
    for i in reversed(ys[:-1]):
        tree = (i, tree)
    for j in zs[1:]:
        tree = (tree, j)
    return tree


# --- printing and parsing the program's text format --------------------------


def format_elem(e, p: int) -> str:
    """The program's rendering: mixed monomials weight-descending, then the
    generators by index, signs as binary operators over Q."""
    lin, quad = e
    if not lin and not quad:
        return "0"
    top = max([mono_max_index(m) for m in quad] + [0])
    order = sorted(quad, key=lambda m: weight_key(m, top), reverse=True)
    pairs = [(mono_str(m), quad[m]) for m in order]
    pairs += [(f"x{i}", lin[i]) for i in sorted(lin)]
    chunks = []
    for mono, c in pairs:
        sign = "+"
        if p == 0 and c < 0:
            sign, c = "-", -c
        if c == 1 and mono != "1":
            body = mono
        elif mono == "1":
            body = str(c)
        else:
            body = f"{c}*{mono}"
        chunks.append((sign, body))
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


_FACTOR = re.compile(r"([xyz])(\d+)(?:\^(\d+))?$")
_SCALAR = re.compile(r"\d+(?:/\d+)?$")


def parse_elem(text: str, p: int):
    """Parse the program's printed form of an element or polynomial."""
    text = text.strip()
    lin, quad = {}, {}
    if text == "0":
        return lin, quad
    for raw in text.replace(" - ", " + -").split(" + "):
        raw = raw.strip()
        sign = 1
        if raw.startswith("-"):
            sign, raw = -1, raw[1:]
        parts = raw.split("*")
        coeff = Fraction(1)
        if _SCALAR.match(parts[0]):
            coeff = Fraction(parts[0])
            parts = parts[1:]
        ys, zs, xs = {}, {}, []
        for part in parts:
            got = _FACTOR.match(part)
            if not got:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            letter, idx, exp = got.group(1), int(got.group(2)), int(got.group(3) or 1)
            if letter == "x":
                xs.append(idx)
            else:
                target = ys if letter == "y" else zs
                target[idx] = target.get(idx, 0) + exp
        c = scalar(p, sign * coeff)
        if xs:
            if len(xs) != 1 or ys or zs:
                raise ValueError(f"bad linear term {raw!r}")
            _add_into(lin, xs[0], c, p)
        else:
            _add_into(quad, (tuple(sorted(ys.items())), tuple(sorted(zs.items()))), c, p)
    return lin, quad


# --- linear algebra ------------------------------------------------------------


def leading_monomials(vectors, p: int) -> set:
    """Leading monomials (weight order) of the span of the given polynomials;
    the set does not depend on the basis chosen for the span."""
    rows = {}
    for v in vectors:
        v = dict(v)
        while v:
            lm = leading(v)
            if lm not in rows:
                inv = 1 / Fraction(v[lm]) if p == 0 else pow(v[lm], p - 2, p)
                rows[lm] = poly_add({}, v, p, inv)
                break
            v = poly_add(v, rows[lm], p, -v[lm])
    return set(rows)


# --- structure algebras ----------------------------------------------------------


def witt_table(n: int) -> dict:
    """e_i * e_j = i e_{i+j-1} (x^i d/dx composed), zero outside 0..n-1."""
    table = {}
    for i in range(n):
        for j in range(n):
            k = i + j - 1
            if i >= 1 and 0 <= k < n:
                table[(i, j)] = {k: Fraction(i)}
    return table


def truncated_free(d: int, top: int, p: int):
    """Free bicommutative algebra on d generators cut above degree ``top``.

    Returns (basis, table): basis lists the generators x1..xd then the
    mixed monomials by degree; table maps (i, j) to a coordinate dict.
    """
    basis = [("x", i) for i in range(1, d + 1)]
    for n in range(2, top + 1):
        basis += sorted(mixed_monomials(d, n))
    where = {b: k for k, b in enumerate(basis)}
    as_elem = [({b[1]: 1}, {}) if b[0] == "x" else ({}, {b: 1}) for b in basis]
    table = {}
    for i, u in enumerate(as_elem):
        for j, v in enumerate(as_elem):
            _, prod = elem_mul(u, v, p)
            coords = {}
            for m, c in prod.items():
                if mono_degree(m) <= top:
                    coords[where[m]] = c
            if coords:
                table[(i, j)] = coords
    return basis, table


def alg_product(table: dict, u: dict, v: dict, p: int) -> dict:
    acc = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                _add_into(acc, k, a * b * c, p)
    return acc


def alg_eval(identity, args: dict, table: dict, p: int) -> dict:
    """Value of sum coeff * tree at the argument coordinate dicts."""
    def ev(t):
        return dict(args[t]) if isinstance(t, int) else alg_product(table, ev(t[0]), ev(t[1]), p)

    acc = {}
    for coeff, tree in identity:
        for k, c in ev(tree).items():
            _add_into(acc, k, coeff * c, p)
    return acc


def first_failing_tuple(identity, dim: int, table: dict, p: int):
    """Least basis tuple (lexicographic over sorted variables) on which a
    multilinear identity does not vanish, or None when it holds."""
    variables = sorted({leaf for _, tree in identity for leaf in leaves(tree)})
    for combo in itertools.product(range(dim), repeat=len(variables)):
        args = {v: {i: 1} for v, i in zip(variables, combo)}
        if alg_eval(identity, args, table, p):
            return combo
    return None


def leaves(tree) -> list:
    return [tree] if isinstance(tree, int) else leaves(tree[0]) + leaves(tree[1])


# --- ideals ------------------------------------------------------------------------


def monomial_member(m, gens, mode: str) -> bool:
    """Membership of a mixed monomial in the ideal of monomial generators.

    Two-sided: the ideal is span{g} + (y_j g, g z_j), so divisibility.
    Left: span{g} + (y_j g); right: span{g} + (g z_j).
    """
    for g in gens:
        if g == m:
            return True
        if mono_divides(g, m):
            q = mono_div(m, g)
            if mode == "two" or (mode == "left" and q[0]) or (mode == "right" and q[1]):
                return True
    return False


def monomial_chain_index(steps, mode: str):
    """chain-stabilize semantics on cumulative monomial steps."""
    last = 0
    for idx, step in enumerate(steps, 1):
        prev = steps[idx - 2] if idx > 1 else []
        new = [g for g in step if g not in prev]
        grew = bool(new) if idx == 1 else any(not monomial_member(g, prev, mode) for g in new)
        if grew:
            last = idx
    if last == 0:
        return 1
    return None if last == len(steps) else last


def module_generators(gens, mode: str, top: int, p: int) -> list:
    """Polynomial-ideal generators whose ideal, plus the span of the
    generators, is the (two-sided, left or right) ideal in the square."""
    out = []
    for g in gens:
        s, t = s_poly(g, p), t_poly(g, p)
        for j in range(1, top + 1):
            yj, zj = ((((j, 1),), ()), 1), (((), ((j, 1),)), 1)
            if mode in ("two", "left"):
                out.append(poly_mul(s if mode == "two" else g[1], dict([yj]), p))
            if mode in ("two", "right"):
                out.append(poly_mul(t if mode == "two" else g[1], dict([zj]), p))
    return [f for f in out if f]


def kernel_polys(gens, p: int) -> list:
    """Quadratic parts of the combinations of generators whose linear parts
    cancel, one per generator whose linear part depends on earlier ones."""
    # pivot -> (linear vector monic at the pivot, combination of generators);
    # rows are kept interreduced, so one pass over them clears every pivot
    rows = {}
    out = []
    for k, g in enumerate(gens):
        vec, combo = dict(g[0]), {k: 1}
        for piv, (rv, rc) in rows.items():
            c = vec.get(piv)
            if c:
                vec = poly_add(vec, rv, p, -c)
                combo = poly_add(combo, rc, p, -c)
        if not vec:
            quad = {}
            for i, c in combo.items():
                quad = poly_add(quad, gens[i][1], p, c)
            out.append(quad)
            continue
        piv = min(vec)
        inv = 1 / Fraction(vec[piv]) if p == 0 else pow(vec[piv], p - 2, p)
        vec, combo = poly_add({}, vec, p, inv), poly_add({}, combo, p, inv)
        for old, (rv, rc) in list(rows.items()):
            c = rv.get(piv)
            if c:
                rows[old] = (poly_add(rv, vec, p, -c), poly_add(rc, combo, p, -c))
        rows[piv] = (vec, combo)
    return out


def certificate_holds(f, gens, mode: str, cert, gb, p: int) -> bool:
    """Recompute the membership identity of a certificate.

    cert = (mu, span, cofactors): mu over generators (two-sided linear
    solve), span over the kernel polynomials (two-sided) or generators
    (one-sided), cofactors as (basis index, polynomial) over gb.
    """
    mu, span, cofactors = cert
    lin, target = dict(f[0]), dict(f[1])
    for k, c in mu.items():
        lin = poly_add(lin, gens[k][0], p, -c)
        target = poly_add(target, gens[k][1], p, -c)
    if lin:
        return False
    spanned = kernel_polys(gens, p) if mode == "two" else [g[1] for g in gens]
    for i, c in span.items():
        target = poly_add(target, spanned[i], p, -c)
    for i, cof in cofactors:
        target = poly_add(target, poly_mul(cof, gb[i], p), p, -1)
    return not target


# --- Groebner bases -------------------------------------------------------------


def _monic(f: dict, p: int) -> dict:
    c = f[leading(f)]
    inv = 1 / Fraction(c) if p == 0 else pow(c, p - 2, p)
    return poly_add({}, f, p, inv)


def _sympy_polys(polys, top: int, p: int):
    """The polynomials in sympy, over y_top, ..., y_1, z_top, ..., z_1."""
    import sympy

    gens = sympy.symbols(
        [f"y{i}" for i in range(top, 0, -1)] + [f"z{i}" for i in range(top, 0, -1)]
    )
    domain = sympy.QQ if p == 0 else sympy.GF(p)
    inputs = [
        sympy.Poly.from_dict(
            {weight_key(m, top): (sympy.Rational(c.numerator, c.denominator) if p == 0 else int(c))
             for m, c in f.items()},
            *gens, domain=domain,
        )
        for f in polys
    ]
    return inputs, gens, domain


def in_ideal(polys, members, top: int, p: int) -> bool:
    """Whether every polynomial of ``members`` lies in the ideal of ``polys``,
    by reduction against sympy's grevlex basis.  A graded order, because
    sympy's lex bases of inhomogeneous inputs take minutes."""
    import sympy

    inputs, gens, domain = _sympy_polys(polys, top, p)
    basis = sympy.groebner(inputs, *gens, order="grevlex", domain=domain)
    return all(basis.contains(f) for f in _sympy_polys(members, top, p)[0])


def groebner(polys, top: int, p: int) -> list:
    """Reduced lex basis from sympy with y_top > ... > y_1 > z_top > ... > z_1
    (the weight order), monic and sorted by leading monomial, ascending."""
    import sympy

    inputs, gens, domain = _sympy_polys(polys, top, p)
    basis = sympy.groebner(inputs, *gens, order="lex", domain=domain)
    out = []
    for g in basis.polys:
        f = {}
        for exps, c in g.terms():
            ys = tuple((top - k, e) for k, e in reversed(list(enumerate(exps[:top]))) if e)
            zs = tuple((top - k, e) for k, e in reversed(list(enumerate(exps[top:]))) if e)
            _add_into(f, (ys, zs), scalar(p, str(c)), p)
        out.append(_monic(f, p))
    return sorted(out, key=lambda f: weight_key(leading(f), top))


def monomial_groebner(monos) -> list:
    """Reduced basis of a monomial ideal: its divisibility-minimal generators,
    sorted by weight, ascending."""
    unique = set(monos)
    minimal = [m for m in unique if not any(o != m and mono_divides(o, m) for o in unique)]
    top = max(mono_max_index(m) for m in minimal)
    return [{m: 1} for m in sorted(minimal, key=lambda m: weight_key(m, top))]
