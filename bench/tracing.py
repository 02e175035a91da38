"""Traced run: spans and counters around the public functions of bicomm.

Wrappers are installed from the benchmark side, on the freshly imported
package, at every binding site: a name that other modules bound with
``from .x import name`` is replaced wherever it is bound, not only in the
defining module.  References captured before installation (a function
stored in an object built during set-up) still point at the original.

A span is (group, start, end, parent span, job id), kept in flat arrays in
memory and written out once at the end.  Leaf operations that run millions
of times per round (monomial and field arithmetic, order keys) only count
calls, so the trace stays small; their time is part of the enclosing span.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute, span group)
SPANS = [
    ("polynomials", "Poly.add", "polynomials.add"),
    ("polynomials", "Poly.add_scaled", "polynomials.add"),
    ("polynomials", "Poly.mul", "polynomials.mul"),
    ("polynomials", "Poly.mul_monomial", "polynomials.mul_monomial"),
    ("algebra", "BicommElement.multiply", "algebra.multiply"),
    ("algebra", "normalize", "algebra.normalize"),
    ("algebra", "normalize_term", "algebra.normalize_term"),
    ("terms", "parse_expression", "terms.parse"),
    ("linalg", "Echelon.insert", "linalg.insert"),
    ("linalg", "Echelon.express", "linalg.reduce"),
    ("linalg", "Echelon.contains", "linalg.reduce"),
    ("linalg", "Echelon.reduce_vec", "linalg.reduce"),
    ("ideals", "buchberger", "ideals.buchberger"),
    ("ideals", "spolynomial", "ideals.spolynomial"),
    ("ideals", "poly_divmod", "ideals.divmod"),
    ("ideals", "two_sided_member", "ideals.member"),
    ("ideals", "left_ideal_member", "ideals.member"),
    ("ideals", "right_ideal_member", "ideals.member"),
    ("ideals", "chain_stabilization", "ideals.chain"),
    ("tideals", "t_ideal_closure_bounded", "tideals.closure"),
    ("tideals", "t_ideal_member_bounded", "tideals.closure"),
    ("tideals", "specht_basis_search", "tideals.search"),
    ("tideals", "spanning_shift_multiples", "tideals.spanning"),
    ("tideals", "specht_reduce", "tideals.specht_reduce"),
    ("tideals", "lift_weight", "tideals.lift_weight"),
    ("structalg", "check_identity", "structalg.check"),
    ("structalg", "check_bicommutative", "structalg.check"),
    ("cli", "main", "cli.main"),
]

# (module, attribute, counter) for call counts without a span
COUNTS = [
    ("monomials", "Monomial.__init__", "monomials.created"),
    ("monomials", "Monomial.__mul__", "monomials.mul_calls"),
    ("monomials", "Monomial.divides", "monomials.divides_calls"),
    ("monomials", "Monomial.lcm", "monomials.lcm_calls"),
    ("orders", "weight_key", "orders.weight_key_calls"),
    ("orders", "higman_leq", "orders.higman_leq_calls"),
    ("scalars", "Field.add", "scalars.field_ops"),
    ("scalars", "Field.sub", "scalars.field_ops"),
    ("scalars", "Field.mul", "scalars.field_ops"),
    ("scalars", "Field.inv", "scalars.field_ops"),
    # one polynomial evaluation at one argument tuple; the only private name
    ("structalg", "_eval_poly", "structalg.eval_calls"),
]

# counters read off a wrapped function's result
RESULT_COUNTERS = {
    "Echelon.insert": lambda r: [("linalg.rows_kept", r is None)],
    "buchberger": lambda r: [("ideals.gb_size_total", len(r))],
    "t_ideal_closure_bounded": lambda r: [("tideals.closure_rows", sum(r.dimensions().values()))],
    "spanning_shift_multiples": lambda r: [("tideals.spanning_elements", len(r))],
}

# per-layer metric -> (unit, better); derived in layer_metrics
PER_LAYER = {}
for _name in ("monomials.created", "monomials.mul_calls", "monomials.divides_calls",
              "monomials.lcm_calls", "orders.weight_key_calls", "orders.higman_leq_calls",
              "scalars.field_ops", "polynomials.mul_calls", "polynomials.add_calls",
              "polynomials.mul_monomial_calls", "algebra.multiply_calls",
              "algebra.normalize_calls", "terms.parse_calls", "linalg.insert_calls",
              "linalg.rows_kept", "linalg.reduce_calls", "ideals.buchberger_calls",
              "ideals.spairs_reduced", "ideals.gb_size_total", "ideals.divmod_calls",
              "ideals.member_calls", "tideals.closure_calls", "tideals.closure_rows",
              "tideals.spanning_elements", "tideals.specht_reduce_calls",
              "tideals.lift_weight_calls", "structalg.check_calls", "structalg.eval_calls",
              "cli.main_calls"):
    PER_LAYER[_name] = ("count", "lower")
for _name in ("polynomials.mul_self_s", "polynomials.add_self_s", "algebra.multiply_self_s",
              "algebra.normalize_self_s", "terms.parse_self_s", "linalg.insert_self_s",
              "linalg.reduce_self_s", "ideals.buchberger_self_s", "ideals.divmod_self_s",
              "ideals.member_self_s", "tideals.closure_self_s", "tideals.search_self_s",
              "tideals.specht_reduce_self_s", "structalg.check_self_s", "cli.main_self_s",
              "trace.overhead_s"):
    PER_LAYER[_name] = ("s", "lower")
PER_LAYER["algebra.multiply_mean_us"] = ("us", "lower")
PER_LAYER["linalg.insert_useful_ratio"] = ("ratio", "higher")


class Tracer:
    def __init__(self):
        self.groups = []
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.counts = {}
        self.rounds = []   # (first span, end span, counts) per traced round
        self._round_start = 0
        self._undo = []

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        bindings = {name: mod for name, mod in sys.modules.items()
                    if (name == "bicomm" or name.startswith("bicomm.")) and mod is not None}
        modules = {name.split(".")[-1]: mod for name, mod in bindings.items()}
        bindings = list(bindings.values())
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, group in table:
                # a name that a later version of the program no longer has
                # is skipped, and its metric reads 0
                mod = modules.get(module)
                owner_name, _, name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    original = vars(owner).get(name) if owner is not None else None
                    if original is not None:
                        self._patch(owner, name, original, make(group, original, attr))
                else:
                    original = getattr(mod, name, None)
                    if original is None:
                        continue
                    wrapped = make(group, original, attr)
                    for target in bindings:
                        if getattr(target, name, None) is original:
                            self._patch(target, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _span(self, group, fn, attr):
        if group not in self.groups:
            self.groups.append(group)
        gid = self.groups.index(group)
        on_result = RESULT_COUNTERS.get(attr)
        tracer, counts = self, self.counts
        g_arr, s_arr, e_arr, p_arr, j_arr, stack = (
            self.group, self.start, self.end, self.parent, self.job, self.stack)

        def wrapped(*args, **kwargs):
            idx = len(s_arr)
            g_arr.append(gid)
            p_arr.append(stack[-1] if stack else -1)
            j_arr.append(tracer.job_id)
            e_arr.append(0.0)
            stack.append(idx)
            s_arr.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                e_arr[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                for key, value in on_result(result):
                    counts[key] = counts.get(key, 0) + value
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _count(self, counter, fn, attr):
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # --- rounds -----------------------------------------------------------------

    def begin_round(self) -> None:
        self._round_start = len(self.start)
        for key in self.counts:
            self.counts[key] = 0

    def end_round(self) -> None:
        self.rounds.append((self._round_start, len(self.start), dict(self.counts)))

    # --- results ----------------------------------------------------------------

    def _round_totals(self, first, stop):
        """Per group: calls, inclusive seconds, self seconds."""
        child = [0.0] * (stop - first)
        for i in range(first, stop):
            parent = self.parent[i]
            if parent >= first:
                child[parent - first] += self.end[i] - self.start[i]
        totals = {g: [0, 0.0, 0.0] for g in self.groups}
        for i in range(first, stop):
            dur = self.end[i] - self.start[i]
            t = totals[self.groups[self.group[i]]]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i - first]
        return totals

    def layer_metrics(self, overhead_s: float) -> dict:
        """Median over traced rounds of every per-layer metric."""
        per_round = []
        for first, stop, counts in self.rounds:
            t = self._round_totals(first, stop)
            calls = {g: v[0] for g, v in t.items()}
            incl = {g: v[1] for g, v in t.items()}
            own = {g: v[2] for g, v in t.items()}
            c = lambda g: calls.get(g, 0)
            s = lambda *gs: sum(own.get(g, 0.0) for g in gs)
            m = {key: counts.get(key, 0) for key in PER_LAYER if PER_LAYER[key][0] == "count"}
            m.update({
                "polynomials.mul_calls": c("polynomials.mul"),
                "polynomials.add_calls": c("polynomials.add"),
                "polynomials.mul_monomial_calls": c("polynomials.mul_monomial"),
                "algebra.multiply_calls": c("algebra.multiply"),
                "algebra.normalize_calls": c("algebra.normalize"),
                "terms.parse_calls": c("terms.parse"),
                "linalg.insert_calls": c("linalg.insert"),
                "linalg.reduce_calls": c("linalg.reduce"),
                "ideals.buchberger_calls": c("ideals.buchberger"),
                "ideals.spairs_reduced": c("ideals.spolynomial"),
                "ideals.divmod_calls": c("ideals.divmod"),
                "ideals.member_calls": c("ideals.member"),
                "tideals.closure_calls": c("tideals.closure"),
                "tideals.specht_reduce_calls": c("tideals.specht_reduce"),
                "tideals.lift_weight_calls": c("tideals.lift_weight"),
                "structalg.check_calls": c("structalg.check"),
                "cli.main_calls": c("cli.main"),
                "polynomials.mul_self_s": s("polynomials.mul"),
                "polynomials.add_self_s": s("polynomials.add"),
                "algebra.multiply_self_s": s("algebra.multiply"),
                "algebra.normalize_self_s": s("algebra.normalize", "algebra.normalize_term"),
                "terms.parse_self_s": s("terms.parse"),
                "linalg.insert_self_s": s("linalg.insert"),
                "linalg.reduce_self_s": s("linalg.reduce"),
                "ideals.buchberger_self_s": s("ideals.buchberger"),
                "ideals.divmod_self_s": s("ideals.divmod"),
                "ideals.member_self_s": s("ideals.member"),
                "tideals.closure_self_s": s("tideals.closure"),
                "tideals.search_self_s": s("tideals.search"),
                "tideals.specht_reduce_self_s": s("tideals.specht_reduce"),
                "structalg.check_self_s": s("structalg.check"),
                "cli.main_self_s": s("cli.main"),
                "algebra.multiply_mean_us": (incl.get("algebra.multiply", 0.0)
                                             / max(1, c("algebra.multiply")) * 1e6),
                "linalg.insert_useful_ratio": (counts.get("linalg.rows_kept", 0)
                                               / max(1, c("linalg.insert"))),
                "trace.overhead_s": overhead_s,
            })
            per_round.append(m)
        return {key: statistics.median(r[key] for r in per_round) for key in PER_LAYER}

    def write(self, path: str) -> int:
        """Write every span as CSV (group, start_us, end_us, parent, job)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("group,start_us,end_us,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{self.groups[self.group[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                         f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.job[i]}\n")
        return len(self.start)
