"""The four benchmark workloads.

Each ``setup_<name>(bc, cli, rng, workdir)`` builds the inputs of one
workload from a seeded ``random.Random`` and returns a ``Workload``: a fixed
list of jobs (each a call into the public ``bicomm`` API or into
``bicomm.cli.main``) and a ``check`` that judges the outputs of one round
against values computed by ``oracle`` or against properties the method must
have.  Nothing of the program is called inside a check except where a check
says so (the Groebner oracle comparison, and the certificates of chains with
linear parts, call ``bc.buchberger``).

Job outputs are turned into plain text (``canon``) after every round, outside
the timed span; every round must give the same text as the first.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle as o


class Job:
    """One call into the program.  ``fault`` names a known fault of the
    program for a job that is expected to raise until that fault is mended;
    any other job that raises makes the run incorrect."""

    __slots__ = ("kind", "fn", "canon", "meta", "fault")

    def __init__(self, kind, fn, canon=str, meta=None, fault=None):
        self.kind = kind
        self.fn = fn
        self.canon = canon
        self.meta = meta
        self.fault = fault


class Workload:
    """A fixed job list, and the check that judges one round's outputs:
    ``check([(job, canonical output), ...])`` returns a list of errors."""

    def __init__(self, jobs, check):
        self.jobs = jobs
        self.check = check


class Failed:
    """Marker for a job that raised; counted in ``failed``."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.text = f"{self.kind}: {str(exc)[:80]}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.kind == self.kind

    def __repr__(self):
        return f"Failed({self.text})"


def judge(workload, results):
    """Errors in one round's ``[(job, canonical output or Failed), ...]``.

    A job that raised is an error unless it names a known fault; the outputs
    of the jobs that did not raise go to the workload's check."""
    errors = [f"job {k} ({job.kind}) raised {out.text}"
              for k, (job, out) in enumerate(results)
              if isinstance(out, Failed) and job.fault is None]
    done = [(job, out) for job, out in results if not isinstance(out, Failed)]
    try:
        errors += workload.check(done)
    except Exception as exc:  # unreadable output is a wrong answer, not a crash
        errors.append(f"check raised {type(exc).__name__}: {exc}")
    return errors


# --- input generation (benchmark-side, in the oracle's representation) -------


def _nonzero(rng, p):
    if p == 0:
        return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
    return rng.randrange(1, p)


def rand_mono(rng, max_index, max_degree, exact=False):
    """Random mixed monomial, as the acceptance suite draws them, or of
    degree exactly max_degree."""
    ydeg = rng.randint(1, max_degree - 1)
    zdeg = max_degree - ydeg if exact else rng.randint(1, max_degree - ydeg)
    ys, zs = {}, {}
    for _ in range(ydeg):
        i = rng.randint(1, max_index)
        ys[i] = ys.get(i, 0) + 1
    for _ in range(zdeg):
        i = rng.randint(1, max_index)
        zs[i] = zs.get(i, 0) + 1
    return (tuple(sorted(ys.items())), tuple(sorted(zs.items())))


def rand_quad(rng, p, max_index, max_degree, terms):
    quad = {}
    for _ in range(rng.randint(1, terms)):
        o._add_into(quad, rand_mono(rng, max_index, max_degree), _nonzero(rng, p), p)
    return ({}, quad)


def rand_elem(rng, p, max_index, max_degree, terms):
    lin, quad = rand_quad(rng, p, max_index, max_degree, terms)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            o._add_into(lin, rng.randint(1, max_index), _nonzero(rng, p), p)
    return (lin, quad)


def to_poly(bc, field, f):
    return bc.Poly(field, {bc.parse_monomial(o.mono_str(m)): c for m, c in f.items()})


def to_program(bc, field, e):
    """Build a program element from the oracle representation through the
    public constructors."""
    return bc.BicommElement(field, dict(e[0]), to_poly(bc, field, e[1]))


# --- words ------------------------------------------------------------------------


def _bracketings(n):
    if n == 1:
        yield 0
        return
    for k in range(1, n):
        for left in _bracketings(k):
            for right in _bracketings(n - k):
                yield (k, left, right)


WORD_SLICES = [(d, n) for d in (1, 2, 3) for n in range(1, 6)] + [(2, 6)]
MULTILINEAR = range(2, 6)
TRIPLES_PER_FIELD = 250
TRIPLE_FIELDS = (0, 2, 3)
ORACLE_TRIPLES = 25


def setup_words(bc, cli, rng, workdir):
    qq = bc.Field(0)
    jobs = []

    def tree_job(tree, words, gens, key):
        def evaluate(t, word, offset):
            if t == 0:
                return gens[word[offset]]
            k, left, right = t
            return evaluate(left, word, offset).multiply(evaluate(right, word, offset + k))

        def fn():
            return {evaluate(tree, w, 0) for w in words}

        return Job("slice", fn, canon=lambda s: tuple(sorted(map(str, s))), meta=key)

    for d, n in WORD_SLICES:
        words = list(itertools.product(range(1, d + 1), repeat=n))
        rng.shuffle(words)
        gens = {i: bc.BicommElement.generator(qq, i) for i in range(1, d + 1)}
        for tree in _bracketings(n):
            jobs.append(tree_job(tree, words, gens, ("slice", d, n)))
    for n in MULTILINEAR:
        words = list(itertools.permutations(range(1, n + 1)))
        rng.shuffle(words)
        gens = {i: bc.BicommElement.generator(qq, i) for i in range(1, n + 1)}
        for tree in _bracketings(n):
            jobs.append(tree_job(tree, words, gens, ("multilinear", n)))

    def triple_job(args):
        a, b, c, p, q, r = args

        def fn():
            return (
                a.multiply(b.multiply(c)), b.multiply(a.multiply(c)),
                a.multiply(b).multiply(c), a.multiply(c).multiply(b),
                p.multiply(q), q.multiply(p),
                p.multiply(q).multiply(r), p.multiply(q.multiply(r)),
            )

        return fn

    for p in TRIPLE_FIELDS:
        field = bc.Field(p)
        for _ in range(TRIPLES_PER_FIELD):
            ours = [rand_elem(rng, p, 4, 3, 2) for _ in range(3)]
            ours += [rand_quad(rng, p, 4, 3, 2) for _ in range(3)]
            args = [to_program(bc, field, e) for e in ours]
            jobs.append(Job("triple", triple_job(args),
                            canon=lambda t: tuple(map(str, t)), meta=(p, ours)))

    def check(results):
        errors = []
        slices = {}
        for job, out in results:
            if job.kind == "slice":
                slices.setdefault(job.meta, set()).update(out)
        for key, texts in sorted(slices.items()):
            # a bracketed word normalizes to one monomial with coefficient 1
            values = [o.parse_elem(t, 0) for t in texts]
            single = all(not quad and list(lin.values()) == [1] or
                         not lin and list(quad.values()) == [1] for lin, quad in values)
            monos = {m for _, quad in values for m in quad}
            if key[0] == "slice":
                _, d, n = key
                if n == 1:
                    ok = set(texts) == {f"x{i}" for i in range(1, d + 1)}
                else:
                    ok = single and monos == o.mixed_monomials(d, n)
                if not ok:
                    errors.append(f"slice d={d} n={n}: rank {len(texts)}, "
                                  f"brute count {o.hilbert(d, n)}")
            else:
                _, n = key
                ok = single and len(monos) == len(texts) == 2**n - 2 and all(
                    sorted(i for i, _ in m[0] + m[1]) == list(range(1, n + 1))
                    and all(e == 1 for _, e in m[0] + m[1])
                    for m in monos
                )
                if not ok:
                    errors.append(f"multilinear n={n}: {len(texts)} values, want {2**n - 2}")
        checked = {p: 0 for p in TRIPLE_FIELDS}
        for job, out in results:
            if job.kind != "triple":
                continue
            p, ours = job.meta
            v = [o.parse_elem(t, p) for t in out]
            if v[0] != v[1] or v[2] != v[3]:
                errors.append(f"defining identity fails over p={p}: {out[:4]}")
            if v[4] != v[5] or v[6] != v[7]:
                errors.append(f"square not commutative/associative over p={p}: {out[4:]}")
            if checked[p] < ORACLE_TRIPLES:
                checked[p] += 1
                a, b, c, pp, q, _ = ours
                want = [o.elem_mul(a, o.elem_mul(b, c, p), p), o.elem_mul(pp, q, p)]
                if [v[0], v[4]] != want:
                    errors.append(f"product differs from t(f)s(g) over p={p}: {out[0]}")
        return errors[:20]

    return Workload(jobs, check)


# --- chains ---------------------------------------------------------------------------

CHAIN_MODES = ["two"] * 22 + ["left"] * 4 + ["right"] * 4
CHAIN_DEGREES = (3, 4, 4)
CHAIN_SAMPLES = 2      # ideal samples appended to the free steps
CHAIN_EXTENSION = 1    # further samples for the invariance check
CHAIN_QUERIES = 3
GB_SAMPLES = 3
LINEAR_CHAINS = (0, 1, 2, 3)   # two-sided chains whose first two generators get a linear part


def _catalog():
    """Shapes of the chains: the monomial supports of the free generators
    and, for every ideal sample, which element it multiplies, by which x_i
    and on which side.  They are fixed, so every seed gives chains of the
    same shape and a steady cost; the seed draws every coefficient.  The
    chains in LINEAR_CHAINS also get a linear part x_i, the same i on both of
    their first two generators."""
    rng = random.Random("bicomm-chains-catalog")
    linear = random.Random("bicomm-chains-linear")
    out = []
    for n, mode in enumerate(CHAIN_MODES):
        supports = []
        for deg in CHAIN_DEGREES:
            terms = []
            while len(terms) < 2:
                m = rand_mono(rng, 2, deg, exact=True)
                if m not in terms:
                    terms.append(m)
            supports.append(terms)
        shapes = []
        for k in range(CHAIN_SAMPLES + CHAIN_EXTENSION + CHAIN_QUERIES):
            left = mode == "left" or (mode == "two" and rng.random() < 0.5)
            shapes.append((rng.randrange(len(supports) + min(k, CHAIN_SAMPLES)),
                           rng.randint(1, 2), left))
        var = linear.randint(1, 2) if n in LINEAR_CHAINS else None
        out.append((supports, shapes, var))
    return out


def ideal_sample(rng, gens, shape):
    """A random scalar multiple of gens[index] times x_var on one side."""
    index, var, left = shape
    e = o.elem_add(({}, {}), gens[index], 0, _nonzero(rng, 0))
    x = o.generator(var)
    return o.elem_mul(x, e, 0) if left else o.elem_mul(e, x, 0)


def setup_chains(bc, cli, rng, workdir):
    qq = bc.Field(0)
    jobs = []
    chains = []
    for mode, (supports, shapes, var) in zip(CHAIN_MODES, _catalog()):
        shapes = iter(shapes)
        ours = [({}, {m: _nonzero(rng, 0) for m in terms}) for terms in supports]
        if var is not None:
            # dependent linear parts: the two-sided linear solve and its kernel run
            for k in (0, 1):
                ours[k] = ({var: _nonzero(rng, 0)}, ours[k][1])
        for _ in range(CHAIN_SAMPLES):
            ours.append(ideal_sample(rng, ours, next(shapes)))
        extension = [ideal_sample(rng, ours, next(shapes)) for _ in range(CHAIN_EXTENSION)]
        queries = [ideal_sample(rng, ours, next(shapes)) for _ in range(CHAIN_QUERIES)]
        if var is not None:
            # a member with a linear part, so the certificate has a nonzero mu
            queries[-1] = o.elem_add(queries[-1], ours[0], 0, _nonzero(rng, 0))
        prog = [to_program(bc, qq, e) for e in ours + extension]
        steps = [prog[: k + 1] for k in range(len(ours))]
        extended = [prog[: k + 1] for k in range(len(ours) + len(extension))]
        final = steps[-1]
        chain = {"mode": mode, "gens": ours, "queries": queries, "length": len(steps),
                 "linear": var is not None}
        chains.append(chain)
        jobs.append(Job("stabilize", lambda s=steps, m=mode: bc.chain_stabilization(s, mode=m),
                        canon=repr, meta=chain))
        jobs.append(Job("extended", lambda s=extended, m=mode: bc.chain_stabilization(s, mode=m),
                        canon=repr, meta=chain))
        cell = []
        for k, q in enumerate(queries):
            qp = to_program(bc, qq, q)
            if mode == "two":
                def fn(qp=qp, first=(k == 0), final=final, cell=cell):
                    if first:
                        cell[:] = [bc.TwoSidedPresentation(final)]
                    return bc.two_sided_member(qp, cell[0])
            else:
                member = bc.left_ideal_member if mode == "left" else bc.right_ideal_member

                def fn(qp=qp, final=final, member=member):
                    return member(qp, final)
            jobs.append(Job("query", fn, canon=_membership_canon, meta=(chain, k)))
    sampled = rng.sample([n for n, c in enumerate(chains) if not c["linear"]], GB_SAMPLES)

    def check(results):
        errors = []
        index = {}
        for job, out in results:
            if job.kind in ("stabilize", "extended"):
                index.setdefault(id(job.meta), {})[job.kind] = out
        for chain in chains:
            got = index.get(id(chain), {})
            if len(got) < 2:
                continue
            want = got["stabilize"] if got["stabilize"] != "None" else str(chain["length"])
            if got["extended"] != want:
                errors.append(f"{chain['mode']} chain: index {got['stabilize']} became "
                              f"{got['extended']} after appending ideal samples")
        bases = {}
        for job, out in results:
            if job.kind != "query":
                continue
            chain, k = job.meta
            member, mu, span, cofactors = out
            if not member:
                errors.append(f"{chain['mode']} ideal sample {k} reported NOT-MEMBER")
                continue
            gens, f = chain["gens"], chain["queries"][k]
            top = max(o.mono_max_index(m) for e in gens + [f] for m in e[1])
            key = (id(chain), top)
            if key not in bases:
                mods = o.module_generators(gens, chain["mode"], top, 0)
                if chain["linear"]:
                    # sympy's lex basis takes minutes here: take the program's
                    # basis, and check that it lies in the ideal
                    got = bc.buchberger([to_poly(bc, qq, f) for f in mods], qq)
                    bases[key] = sorted((o.parse_elem(str(g), 0)[1] for g in got),
                                        key=lambda f: o.weight_key(o.leading(f), top))
                    if not o.in_ideal(mods, bases[key], top, 0):
                        errors.append("two-sided chain with linear parts: basis of "
                                      "bicomm.buchberger leaves the ideal")
                else:
                    bases[key] = o.groebner(mods, top, 0)
            cert = (
                {i: Fraction(c) for i, c in mu},
                {i: Fraction(c) for i, c in span},
                [(i, o.parse_elem(t, 0)[1]) for i, t in cofactors],
            )
            if not o.certificate_holds(f, gens, chain["mode"], cert, bases[key], 0):
                errors.append(f"{chain['mode']} certificate of query {k} does not recompute")
        for n in sampled:
            chain = chains[n]
            gens = chain["gens"]
            top = max(o.mono_max_index(m) for e in gens for m in e[1])
            mods = o.module_generators(gens, chain["mode"], top, 0)
            got = bc.buchberger([to_poly(bc, qq, f) for f in mods], qq)
            mine = sorted((o.parse_elem(str(g), 0)[1] for g in got),
                          key=lambda f: o.weight_key(o.leading(f), top))
            if mine != o.groebner(mods, top, 0):
                errors.append(f"chain {n}: reduced basis differs from sympy's lex basis")
        return errors[:20]

    return Workload(jobs, check)


def _membership_canon(res):
    return (
        bool(res),
        tuple(sorted((k, str(c)) for k, c in (res.mu or {}).items())),
        tuple(sorted((k, str(c)) for k, c in (res.span or {}).items())),
        tuple((i, str(p)) for i, p in (res.cofactors or [])),
    )


# --- closure ------------------------------------------------------------------------

# generators and identities as (coefficient, tree) sums; a tree is a leaf
# index or a (left, right) pair
COMM = [(1, (1, 2)), (-1, (2, 1))]
SQUARE = [(1, (1, 1))]
ASSOC = [(1, ((1, 2), 3)), (-1, (1, (2, 3)))]
CLOSURES = [("comm", (5, 3)), ("comm", (4, 4)), ("assoc", (4, 3)), ("assoc", (4, 4)),
            ("square", (4, 3))]
SEARCHES = [("comm", (5, 3)), ("comm", (5, 4)), ("square", (4, 2)), ("square", (4, 3)),
            ("assoc", (4, 3))]
MEMBER_QUERIES = 40
LIFTS = 40
REDUCTIONS = 20
QUERY_WINDOW = (4, 3)


def _relabel(e, phi):
    lin = {phi[i]: c for i, c in e[0].items()}
    quad = {}
    for m, c in e[1].items():
        quad[(tuple(sorted((phi[i], x) for i, x in m[0])),
              tuple(sorted((phi[i], x) for i, x in m[1])))] = c
    return (lin, quad)


def _elem_of(identity, p=0):
    out = ({}, {})
    for coeff, tree in identity:
        out = o.elem_add(out, o.eval_tree(tree, p), p, coeff)
    return out


def comm_member(e) -> bool:
    """The commutator's closure: the quotient is free commutative-associative,
    so an element lies in it iff it has no linear part and the coefficients
    of each multihomogeneous component sum to zero."""
    lin, quad = e
    if lin:
        return False
    sums = {}
    for m, c in quad.items():
        sums[o.multidegree(m)] = sums.get(o.multidegree(m), 0) + c
    return not any(sums.values())


def spanning_leads(g, window, p=0) -> set:
    """Leading monomials of the span of relabeled monomial multiples of g."""
    deg, nvars = window
    idx = sorted({i for m in g[1] for i, _ in m[0] + m[1]})
    gdeg = max(o.mono_degree(m) for m in g[1])
    multipliers = [o.ONE]
    for total in range(1, deg - gdeg + 1):
        slots = [(0, i) for i in range(1, nvars + 1)] + [(1, i) for i in range(1, nvars + 1)]
        for combo in itertools.combinations_with_replacement(slots, total):
            ys, zs = {}, {}
            for side, i in combo:
                target = zs if side else ys
                target[i] = target.get(i, 0) + 1
            multipliers.append((tuple(sorted(ys.items())), tuple(sorted(zs.items()))))
    vectors = []
    for targets in itertools.combinations(range(1, nvars + 1), len(idx)):
        shifted = _relabel(g, dict(zip(idx, targets)))[1]
        for mult in multipliers:
            vectors.append(o.poly_mul(shifted, {mult: 1}, p))
    return o.leading_monomials(vectors, p)


def setup_closure(bc, cli, rng, workdir):
    qq = bc.Field(0)
    perm = list(range(1, 4))
    rng.shuffle(perm)
    phi = {i + 1: v for i, v in enumerate(perm)}
    ours = {
        "comm": o.elem_add(({}, {}), _elem_of(COMM), 0, _nonzero(rng, 0)),
        "square": o.elem_add(({}, {}), _elem_of(SQUARE), 0, _nonzero(rng, 0)),
        "assoc": o.elem_add(({}, {}), _relabel(_elem_of(ASSOC), phi), 0, _nonzero(rng, 0)),
    }
    prog = {k: to_program(bc, qq, e) for k, e in ours.items()}
    jobs = []
    for name, window in CLOSURES:
        w = bc.ClosureWindow(*window)
        jobs.append(Job("closure", lambda g=prog[name], w=w: bc.t_ideal_closure_bounded([g], w),
                        canon=_span_canon, meta=(name, window)))
    for name, window in SEARCHES:
        w = bc.ClosureWindow(*window)
        jobs.append(Job("search", lambda g=prog[name], w=w: bc.specht_basis_search([g], w),
                        canon=lambda r: (tuple(map(str, r.basis)), tuple(map(str, r.antichain)),
                                         bool(r.verified)),
                        meta=(name, window)))
    window = bc.ClosureWindow(*QUERY_WINDOW)
    for k in range(MEMBER_QUERIES):
        if k % 2:
            f = _comm_query(rng, k // 2)
            gname = "comm"
        else:
            gname = ("comm", "square", "assoc")[k // 2 % 3]
            f = _closure_image(rng, gname, ours[gname])
        fp = to_program(bc, qq, f)
        jobs.append(Job("member", lambda f=fp, g=prog[gname], w=window:
                        bc.t_ideal_member_bounded(f, [g], w),
                        canon=bool, meta=(gname, f, k % 2 == 0)))
    for _ in range(LIFTS):
        f, target = _lift_case(rng)
        fp, tp = to_program(bc, qq, f), bc.parse_monomial(o.mono_str(target))
        jobs.append(Job("lift", lambda f=fp, t=tp: bc.lift_weight(f, t), meta=target))
    spanning = [o.parse_elem(str(v), 0) for v in
                bc.spanning_shift_multiples([prog["comm"]], bc.ClosureWindow(*QUERY_WINDOW))]
    for _ in range(REDUCTIONS):
        total = ({}, {})
        for v in rng.sample(spanning, 3):
            total = o.elem_add(total, v, 0, _nonzero(rng, 0))
        tp = to_program(bc, qq, total)
        jobs.append(Job("reduce", lambda t=tp: bc.specht_reduce(t, [prog["comm"]])))

    def check(results):
        errors = []
        for job, out in results:
            if job.kind == "closure":
                name, (deg, nvars) = job.meta
                dims = dict(out[0])
                for key, rank in dims.items():
                    for perm_ in itertools.permutations(range(1, nvars + 1)):
                        other = tuple(sorted((perm_[v - 1], d) for v, d in key))
                        if dims.get(other) != rank:
                            errors.append(f"{name} {job.meta[1]}: rank {rank} at {key} but "
                                          f"{dims.get(other)} at {other}")
                            break
                    if name == "comm":
                        want = 0
                        if sum(d for _, d in key) >= 2:
                            want = 1
                            for _, d in key:
                                want *= d + 1
                            want -= 3
                        if rank != want:
                            errors.append(f"comm {job.meta[1]}: rank {rank} at {key}, want {want}")
            elif job.kind == "search":
                name, window_ = job.meta
                basis, antichain, verified = out
                if name in ("comm", "square"):
                    if not verified or basis != (o.format_elem(ours[name], 0),):
                        errors.append(f"search {name} {window_}: {out}")
                    want = [o.mono_str(m) for m in
                            o.minimal_antichain(spanning_leads(ours[name], window_))]
                    if list(antichain) != want:
                        errors.append(f"search {name} {window_}: antichain {antichain}, "
                                      f"want {want}")
            elif job.kind == "member":
                gname, f, is_image = job.meta
                want = True if is_image else comm_member(f)
                if out != want:
                    errors.append(f"closure membership of {o.format_elem(f, 0)} in ({gname}): "
                                  f"got {out}, want {want}")
            elif job.kind == "lift":
                lin, quad = o.parse_elem(out, 0)
                if not quad or o.leading(quad) != job.meta:
                    errors.append(f"lift has weight {quad and o.mono_str(o.leading(quad))}, "
                                  f"want {o.mono_str(job.meta)}")
            elif job.kind == "reduce" and out != "0":
                errors.append(f"spanning combination reduced to {out}, want 0")
        return errors[:20]

    return Workload(jobs, check)


def _span_canon(span):
    dims = tuple(sorted(span.dimensions().items()))
    rows = tuple(tuple(map(str, span.component(key))) for key, _ in dims)
    return dims, rows


# exponents per variable of the commutator queries, taken in turn so that
# every seed asks for the same multidegree shapes
QUERY_SHAPES = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (3, 1)]


def _comm_query(rng, k):
    """Random element of the k-th query shape on random variables; half of
    them are shifted so their coefficients sum to zero (closure members)."""
    shape = QUERY_SHAPES[k % len(QUERY_SHAPES)]
    md = tuple(sorted(zip(rng.sample(range(1, 4), len(shape)), shape)))
    monos = sorted(m for m in o.mixed_monomials(3, sum(shape)) if o.multidegree(m) == md)
    chosen = rng.sample(monos, min(3, len(monos)))
    quad = {mm: _nonzero(rng, 0) for mm in chosen}
    if rng.random() < 0.5:
        quad[chosen[0]] -= sum(quad.values())
        quad = {mm: c for mm, c in quad.items() if c}
    return ({}, quad)


def _closure_image(rng, name, g):
    """An endomorphic image of a generator, times generators, inside the query
    window and so inside its closure.  Over fresh labels (t, u, v) of x1..x3:
    the commutator gets x1 -> a x_t + b x_u, x2 -> c x_v and then x_t * _ * x_v;
    the square gets x1 -> a x_t + b x_u and then x_v * _ * x_v; the associator
    gets x_i -> c_i x_(t, u, v)[i] and then x_t * _.  The multidegree shapes
    are fixed, so every seed asks for buckets of the same sizes."""
    t, u, v = rng.sample(range(1, 4), 3)

    def lin(*labels):
        return ({k: _nonzero(rng, 0) for k in labels}, {})

    if name == "comm":
        images, left, right = {1: lin(t, u), 2: lin(v)}, [t], [v]
    elif name == "square":
        images, left, right = {1: lin(t, u)}, [v], [v]
    else:
        images, left, right = {1: lin(t), 2: lin(u), 3: lin(v)}, [t], []
    out = ({}, {})
    for m, c in g[1].items():
        term = {o.ONE: 1}
        for i, e in m[0]:
            for _ in range(e):
                term = o.poly_mul(term, o.t_poly(images[i], 0), 0)
        for i, e in m[1]:
            for _ in range(e):
                term = o.poly_mul(term, o.s_poly(images[i], 0), 0)
        out = o.elem_add(out, ({}, term), 0, c)
    for k in left:
        out = o.elem_mul(o.generator(k), out, 0)
    for k in right:
        out = o.elem_mul(out, o.generator(k), 0)
    return out


def _lift_case(rng):
    """A random source and a target its weight embeds into (criterion 06)."""
    while True:
        f = rand_quad(rng, 0, 2, 3, 2)
        if not f[1]:
            continue
        wt = o.leading(f[1])
        phi, nxt = {}, rng.randint(1, 2)
        for i in range(1, o.mono_max_index(wt) + 1):
            phi[i] = nxt
            nxt += rng.randint(1, 2)
        relabeled = _relabel(({}, {wt: 1}), phi)[1]
        (moved,) = relabeled
        mult = ((((rng.randint(1, 4), 1),) if rng.random() < 0.6 else ()),
                (((rng.randint(1, 4), 1),) if rng.random() < 0.6 else ()))
        target = o.mono_mul(moved, mult)
        if o.mono_max_index(target) <= 4 and o.embeds(wt, target):
            return f, target


# --- cli ------------------------------------------------------------------------------

LEFT_COMM = [(1, (1, (2, 3))), (-1, (2, (1, 3)))]
RIGHT_COMM = [(1, ((1, 2), 3)), (-1, ((1, 3), 2))]
COMMUTATIVITY = [(1, (1, 2)), (-1, (2, 1))]
DEEP_FACTORS = 1201


def _identity_text(identity):
    """Input text of a sum of trees with coefficients +1 and -1."""
    text = ""
    for coeff, tree in identity:
        text += (" - " if coeff < 0 else " + " if text else "") + f"({o.tree_text(tree)})"
    return text


def _rand_tree(rng, size, nvars):
    if size == 1:
        return rng.randint(1, nvars)
    k = rng.randint(1, size - 1)
    return (_rand_tree(rng, k, nvars), _rand_tree(rng, size - k, nvars))


def _deep_tree(rng, depth, nvars):
    """A path-shaped tree: each level adds one leaf on a random side."""
    t = rng.randint(1, nvars)
    for _ in range(depth):
        x = rng.randint(1, nvars)
        t = (x, t) if rng.random() < 0.5 else (t, x)
    return t


def _sum_text(terms, p):
    """Input text of sum c_k * tree_k and its normal form."""
    parts, value = [], ({}, {})
    for c, tree in terms:
        body = o.tree_text(tree) if isinstance(tree, int) else f"({o.tree_text(tree)})"
        parts.append(("- " if c < 0 else "+ ") + f"{abs(c)}*{body}")
        value = o.elem_add(value, o.eval_tree(tree, p), p, o.scalar(p, c))
    return " ".join(parts), value


def _alg_json(dim, table, field="q"):
    rows = []
    for (i, j), coords in sorted(table.items()):
        rows.append([i, j, [str(coords.get(k, 0)) for k in range(dim)]])
    obj = {"dim": dim, "table": rows}
    if field is not None:
        obj["field"] = field
    return json.dumps(obj)


def setup_cli(bc, cli, rng, workdir):
    cases = []   # (argv, expected (code, stdout) or a checker)

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # normalize: long sums and deeply nested products over three fields
    for k in range(12):
        p = (0, 2, 3)[k % 3]
        if k % 2:
            terms = [(_coeff(rng, p), _rand_tree(rng, rng.randint(1, 5), 3)) for _ in range(30)]
        else:
            terms = [(_coeff(rng, p), _deep_tree(rng, 150, 3))]
        text, value = _sum_text(terms, p)
        field = "q" if p == 0 else f"fp:{p}"
        cases.append((["normalize", text, "--field", field], (0, o.format_elem(value, p) + "\n")))
    # mul: products of random sums
    for k in range(10):
        p = (0, 3)[k % 2]
        a, va = _sum_text([(_coeff(rng, p), _rand_tree(rng, rng.randint(1, 4), 3))
                           for _ in range(6)], p)
        b, vb = _sum_text([(_coeff(rng, p), _rand_tree(rng, rng.randint(1, 4), 3))
                           for _ in range(6)], p)
        field = "q" if p == 0 else f"fp:{p}"
        cases.append((["mul", a, b, "--field", field],
                      (0, o.format_elem(o.elem_mul(va, vb, p), p) + "\n")))
    # dimensions, by brute count
    for k in range(8):
        d, n = rng.randint(1, 4), rng.randint(1, 6)
        mode = ("human", "tsv", "json")[k % 3]
        value = o.hilbert(d, n)
        out = {"human": f"{value}\n", "tsv": f"dimension\t{value}\n",
               "json": json.dumps({"dimension": value}) + "\n"}[mode]
        cases.append((["hilbert", "-d", str(d), "-n", str(n), "--output", mode], (0, out)))
    for n in rng.sample(range(1, 9), 4):
        cases.append((["codim", "-n", str(n)], (0, f"{o.codim(n)}\n")))
    # orders
    for _ in range(15):
        a, b = rand_mono(rng, 3, 5), rand_mono(rng, 3, 5)
        if rng.random() < 0.2:
            b = a
        sign = {-1: "<", 0: "=", 1: ">"}[o.weight_cmp(a, b)]
        cases.append((["weight-cmp", o.mono_str(a), o.mono_str(b)], (0, sign + "\n")))
    for _ in range(15):
        a = rand_mono(rng, 2, 3)
        b = rand_mono(rng, 4, 6) if rng.random() < 0.7 else a
        cases.append((["higman-cmp", o.mono_str(a), o.mono_str(b)],
                      (0, o.higman_relation(a, b) + "\n")))
    # ideal membership over monomial generators
    for k in range(10):
        gens = [rand_mono(rng, 2, 3) for _ in range(2)]
        path = write(f"gens{k}.txt", "\n".join(o.tree_text(o.word_tree(g)) for g in gens) + "\n")
        mode = ("two", "left", "right")[k % 3]
        if rng.random() < 0.5:
            m = o.mono_mul(rng.choice(gens), rand_mono(rng, 2, 2) if rng.random() < 0.5 else o.ONE)
        else:
            m = rand_mono(rng, 2, 5)
        member = o.monomial_member(m, gens, mode)
        argv = ["ideal-member", "--gens", path, "--elem", o.tree_text(o.word_tree(m)),
                "--mode", mode]
        if mode == "two" and member:
            argv.append("--verbose")
            cases.append((argv, _certificate_checker(m, gens)))
        else:
            want = "MEMBER" if member else "NOT-MEMBER"
            cases.append((argv, (0 if member else 1, want + "\n")))
    # chains of monomials
    for k in range(6):
        steps, acc = [], []
        for _ in range(4):
            acc = acc + [rand_mono(rng, 2, 4)]
            steps.append(list(acc))
        blocks = []
        for n, step in enumerate(steps):
            new = step[len(steps[n - 1]):] if n else step
            blocks.append("\n".join(o.tree_text(o.word_tree(g)) for g in new))
        path = write(f"chain{k}.txt", "\n\n".join(blocks) + "\n")
        mode = ("two", "left", "right")[k % 3]
        index = o.monomial_chain_index(steps, mode)
        want = (1, "NOT-STABLE-WITHIN-INPUT\n") if index is None else (0, f"{index}\n")
        cases.append((["chain-stabilize", "--chain", path, "--mode", mode], want))
    # substitution-closure membership for the commutator
    comm_path = write("comm.txt", _identity_text(COMM) + "\n")
    for k in range(8):
        f = _comm_query(rng, k)
        member = comm_member(f)
        text, _ = _sum_text(
            [(c, o.word_tree(m)) for m, c in sorted(f[1].items())], 0)
        cases.append((["tideal-member", "--gens", comm_path, "--elem", text,
                       "--max-deg", "4", "--max-vars", "3"],
                      (0 if member else 1, ("MEMBER" if member else "NOT-MEMBER") + "\n")))
    # basis search
    square_path = write("square.txt", _identity_text(SQUARE) + "\n")
    for path, gen, window, output in ((comm_path, COMM, (4, 3), "human"),
                                       (square_path, SQUARE, (4, 2), "json")):
        g = _elem_of(gen)
        anti = [o.mono_str(m) for m in o.minimal_antichain(spanning_leads(g, window))]
        basis = o.format_elem(g, 0)
        if output == "human":
            out = f"basis 1: {basis}\n" + "".join(f"antichain: {a}\n" for a in anti) + "VERIFIED\n"
        else:
            out = json.dumps({"basis": basis, "antichain": anti[0] if len(anti) == 1 else anti,
                              "verdict": "VERIFIED"}) + "\n"
        cases.append((["specht-search", "--gens", path, "--max-deg", str(window[0]),
                       "--max-vars", str(window[1]), "--output", output], (0, out)))
    # identity checks on Witt and truncated free algebras
    for n in (3, 4):
        path = write(f"witt{n}.json", _alg_json(n, o.witt_table(n)))
        for ident in (LEFT_COMM, RIGHT_COMM, COMMUTATIVITY):
            cases.append((["check-identity", "--algebra", path,
                           "--identity", _identity_text(ident)],
                          _identity_expect(ident, n, o.witt_table(n), "multilinear")))
    basis, table = o.truncated_free(2, 3, 0)
    free_path = write("free.json", _alg_json(len(basis), table))
    for mode in ("multilinear", "symbolic"):
        for ident in (LEFT_COMM, RIGHT_COMM, COMMUTATIVITY):
            cases.append((["check-identity", "--algebra", free_path, "--identity",
                           _identity_text(ident), "--mode", mode],
                          _identity_expect(ident, len(basis), table, mode)))
    for n in (3, 4, 6):
        cases.append((["witt", "-n", str(n)], _witt_checker(n)))
    # the two inputs that fail today: deep left-nested product, JSON without "field"
    deep = "x1"
    for _ in range(DEEP_FACTORS - 1):
        deep = f"({deep})*x1" if deep != "x1" else "x1*x1"
    faults = {}
    cases.append((["normalize", deep], (0, f"y1*z1^{DEEP_FACTORS - 1}\n")))
    faults[len(cases) - 1] = "RecursionError in the recursive parser and normalize_term"
    bad_path = write("nofield.json", _alg_json(2, {}, field=None))
    cases.append((["check-identity", "--algebra", bad_path, "--identity", "(x1*x2) - (x2*x1)"],
                  _error_checker))
    faults[len(cases) - 1] = "KeyError for an algebra JSON without \"field\""

    jobs = []
    for k, (argv, expect) in enumerate(cases):
        def fn(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        jobs.append(Job("cli", fn, canon=tuple, meta=(argv, expect), fault=faults.get(k)))

    def check(results):
        errors = []
        for job, out in results:
            argv, expect = job.meta
            code, stdout, stderr = out
            if callable(expect):
                problem = expect(code, stdout, stderr)
            else:
                problem = None
                if (code, stdout) != expect:
                    problem = f"got {(code, stdout)!r}, want {expect!r}"
            if problem:
                errors.append(f"{' '.join(argv)[:100]}: {problem[:300]}")
        return errors[:20]

    return Workload(jobs, check)


def _coeff(rng, p):
    c = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    if p and c % p == 0:
        c = 1
    return c


def _identity_expect(identity, dim, table, mode):
    witness = o.first_failing_tuple(identity, dim, table, 0)
    if witness is None:
        return (0, "Holds\n")
    shown = "none" if mode == "symbolic" else "(" + ",".join(f"e{i}" for i in witness) + ")"
    return (1, f"Fails\nwitness: {shown}\n")


def _witt_checker(n):
    def check(code, stdout, stderr):
        obj = json.loads(stdout)
        table = {}
        for i, j, coeffs in obj["table"]:
            table[(i, j)] = {k: Fraction(c) for k, c in enumerate(coeffs) if Fraction(c)}
        if code != 0 or obj["dim"] != n or obj["field"] != "q" or table != o.witt_table(n):
            return f"witt table differs from e_i*e_j = i e_(i+j-1): {stdout[:200]}"
        return None

    return check


def _error_checker(code, stdout, stderr):
    if code == 3 and stderr.startswith("error:") and not stdout:
        return None
    return f"want exit 3 and an error line, got {code} {stderr[:100]!r}"


def _certificate_checker(m, gens):
    """Two-sided membership certificate of a monomial: recompute
    m - sum span_k g_k = sum cofactor_i b_i over the monomial ideal's basis."""
    def check(code, stdout, stderr):
        lines = stdout.splitlines()
        if code != 0 or not lines or lines[0] != "MEMBER":
            return f"want MEMBER, got {code} {stdout!r}"
        mu, span, cofactors = {}, {}, []
        for line in lines[1:]:
            label, _, rest = line.partition(": ")
            name, _, value = rest.partition(" ")
            if label == "mu":
                mu[int(name[1:]) - 1] = Fraction(value)
            elif label == "span":
                span[int(name[1:]) - 1] = Fraction(value)
            elif label == "cofactor":
                cofactors.append((int(name[1:]) - 1, o.parse_elem(value, 0)[1]))
            else:
                return f"unexpected certificate line {line!r}"
        ours = [({}, {g: Fraction(1)}) for g in gens]
        top = max(o.mono_max_index(x) for x in gens + [m])
        basis = o.monomial_groebner(
            next(iter(f)) for f in o.module_generators(ours, "two", max(top, 1), 0))
        if not o.certificate_holds(({}, {m: Fraction(1)}), ours, "two", (mu, span, cofactors),
                                   basis, 0):
            return f"certificate does not recompute: {stdout!r}"
        return None

    return check


WORKLOADS = {
    "words": setup_words,
    "chains": setup_chains,
    "closure": setup_closure,
    "cli": setup_cli,
}
