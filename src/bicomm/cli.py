"""Command-line interface.

Every subcommand emits a fixed sequence of facts.  Output mode human
prints one line per fact (bare value, or "label: value" for multi-fact
commands), tsv prints "key<TAB>value" lines, json prints one object with
one key per fact (repeated keys collect into arrays).  Output is
rendered in full before any of it is written, so a command that fails
writes nothing to stdout.  Exit codes: 0 success or a true verdict, 1 a
false or failing verdict, 2 usage error, 3 input or domain error,
including a count with more digits than the interpreter's int-to-str
limit (`sys.get_int_max_str_digits`).

`main(argv)` returns the exit code and may be called any number of
times in one process; the argument parser is built on the first call
and reused.

The BICOMM_THREADS environment variable caps internal parallelism; the
current implementation is sequential, so any positive value is accepted
and the results do not depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algebra import graded_dimension, multilinear_dimension, parse_element
from .errors import BicommError
from .ideals import chain_stabilization, left_ideal_member, right_ideal_member, two_sided_member
from .monomials import parse_monomial
from .orders import higman_relation, weight_compare
from .scalars import Field
from .structalg import StructureAlgebra, check_identity, format_witness, witt_truncated
from .terms import parse_expression
from .tideals import (
    ClosureWindow,
    char_zero_two_variable_heuristic,
    specht_basis_search,
    t_ideal_member_bounded,
)


class _Emitter:
    """Collects (key, label, value) facts and renders them at the end."""

    def __init__(self, mode: str):
        self.mode = mode
        self.facts = []

    def emit(self, key: str, value, label: str = "") -> None:
        self.facts.append((key, label, value))

    def render(self) -> str:
        if self.mode == "human":
            lines = [f"{label}: {value}\n" if label else f"{value}\n"
                     for _, label, value in self.facts]
        elif self.mode == "tsv":
            lines = [f"{key}\t{value}\n" for key, _, value in self.facts]
        else:
            obj = {}
            for key, _, value in self.facts:
                if key in obj:
                    if not isinstance(obj[key], list):
                        obj[key] = [obj[key]]
                    obj[key].append(value)
                else:
                    obj[key] = value
            lines = [json.dumps(obj) + "\n"]
        return "".join(lines)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise BicommError(f"cannot read {path}: {e.strerror}") from None


def _element_lines(text: str, field: Field) -> list:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_element(line, field))
    return out


def _read_generators(path: str, field: Field) -> list:
    return _element_lines(_read_text(path), field)


def _read_chain(path: str, field: Field) -> list:
    """Cumulative chain: blank-line-separated blocks, each block extends
    the union of the blocks before it."""
    blocks = []
    current = []
    for line in _read_text(path).splitlines() + [""]:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(parse_element(stripped, field))
    steps = []
    acc = []
    for block in blocks:
        acc = acc + block
        steps.append(list(acc))
    return steps


# --- subcommand handlers ----------------------------------------------------


def _cmd_normalize(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    value = parse_element(args.expr, field)
    em.emit("normal_form", str(value))
    return 0


def _cmd_mul(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    left = parse_element(args.left, field)
    right = parse_element(args.right, field)
    em.emit("product", str(left * right))
    return 0


def _refuse_long_count(factors: int, log10_factor: float, log10_scale: float = 0.0) -> None:
    """Refuse a count known to be at least 10**(log10_scale + factors *
    log10_factor) once that bound has more digits than the int-to-str
    limit allows, so that the count is never built.  A count below the
    bound but still too long fails when the output is rendered."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and factors >= (limit - log10_scale) / log10_factor:
        raise BicommError(f"the count exceeds the limit ({limit} digits) for integer string conversion")


def _cmd_hilbert(args, em: _Emitter) -> int:
    d, n = args.d, args.n
    if d >= 1 and n >= 2:
        # The count is at least a third of all C(N, k) degree-n monomials
        # in the 2d variables, N = n + 2d - 1, and C(N, k) >= (N/k)**k.
        k = min(2 * d - 1, n)
        _refuse_long_count(k, math.log10(n + 2 * d - 1) - math.log10(k), -math.log10(3))
    em.emit("dimension", graded_dimension(d, n))
    return 0


def _cmd_codim(args, em: _Emitter) -> int:
    if args.n >= 2:
        _refuse_long_count(args.n - 1, math.log10(2))  # 2**n - 2 >= 2**(n-1)
    em.emit("dimension", multilinear_dimension(args.n))
    return 0


def _cmd_weight_cmp(args, em: _Emitter) -> int:
    a = parse_monomial(args.left)
    b = parse_monomial(args.right)
    sign = weight_compare(a, b)
    em.emit("comparison", {-1: "<", 0: "=", 1: ">"}[sign])
    return 0


def _cmd_higman_cmp(args, em: _Emitter) -> int:
    a = parse_monomial(args.left)
    b = parse_monomial(args.right)
    em.emit("relation", higman_relation(a, b))
    return 0


def _cmd_ideal_member(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    gens = _read_generators(args.gens, field)
    elem = parse_element(args.elem, field)
    if args.mode == "two":
        res = two_sided_member(elem, gens)
    elif args.mode == "left":
        res = left_ideal_member(elem, gens)
    else:
        res = right_ideal_member(elem, gens)
    em.emit("member", "MEMBER" if res else "NOT-MEMBER")
    if res and args.verbose:
        for k, c in sorted((res.mu or {}).items()):
            em.emit("mu", f"g{k + 1} {field.format_scalar(c)}", label="mu")
        for k, c in sorted((res.span or {}).items()):
            em.emit("span", f"p{k + 1} {field.format_scalar(c)}", label="span")
        for k, p in res.cofactors or []:
            em.emit("cofactor", f"b{k + 1} {p}", label="cofactor")
    return 0 if res else 1


def _cmd_chain_stabilize(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    steps = _read_chain(args.chain, field)
    index = chain_stabilization(steps, mode=args.mode)
    if index is None:
        em.emit("stabilization", "NOT-STABLE-WITHIN-INPUT")
        return 1
    em.emit("stabilization", index)
    return 0


def _cmd_tideal_member(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    gens = _read_generators(args.gens, field)
    elem = parse_element(args.elem, field)
    window = ClosureWindow(args.max_deg, args.max_vars)
    member = t_ideal_member_bounded(elem, gens, window)
    em.emit("member", "MEMBER" if member else "NOT-MEMBER")
    return 0 if member else 1


def _cmd_specht_search(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    gens = _read_generators(args.gens, field)
    window = ClosureWindow(args.max_deg, args.max_vars)
    if args.char0_two_vars:
        gens = char_zero_two_variable_heuristic(gens, window)
    result = specht_basis_search(gens, window)
    for i, b in enumerate(result.basis):
        em.emit("basis", str(b), label=f"basis {i + 1}")
    for m in result.antichain:
        em.emit("antichain", str(m), label="antichain")
    verdict = "VERIFIED" if result.verified else "UNVERIFIED-WITHIN-WINDOW"
    em.emit("verdict", verdict)
    return 0 if result.verified else 1


def _cmd_check_identity(args, em: _Emitter) -> int:
    alg = StructureAlgebra.from_json(_read_text(args.algebra))
    f = parse_expression(args.identity, alg.field)
    res = check_identity(f, alg, mode=args.mode, samples=args.samples, seed=args.seed)
    em.emit("verdict", "Holds" if res.holds else "Fails")
    if not res.holds:
        em.emit("witness", format_witness(res.witness), label="witness")
    return 0 if res.holds else 1


def _cmd_witt(args, em: _Emitter) -> int:
    field = Field.parse(args.field)
    em.emit("algebra", witt_truncated(args.n, field).to_json())
    return 0


# --- parser -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("human", "tsv", "json"), default="human",
        help="output mode (default human)",
    )
    common.add_argument("--verbose", action="store_true", help="print certificates")

    parser = argparse.ArgumentParser(
        prog="bicomm",
        description="Free bicommutative algebra toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, field=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        if field:
            p.add_argument("--field", default="q", help="scalar field: q or fp:P")
        return p

    p = add("normalize", _cmd_normalize, "normalize a bracketed expression")
    p.add_argument("expr")

    p = add("mul", _cmd_mul, "multiply two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = add("hilbert", _cmd_hilbert, "graded dimension of the free algebra")
    p.add_argument("-d", type=int, required=True, help="number of generators")
    p.add_argument("-n", type=int, required=True, help="total degree")

    p = add("codim", _cmd_codim, "multilinear dimension in n variables")
    p.add_argument("-n", type=int, required=True)

    p = add("weight-cmp", _cmd_weight_cmp, "compare monomials in the weight order", field=False)
    p.add_argument("left")
    p.add_argument("right")

    p = add("higman-cmp", _cmd_higman_cmp, "compare monomials in the embedding order", field=False)
    p.add_argument("left")
    p.add_argument("right")

    p = add("ideal-member", _cmd_ideal_member, "membership in a finitely generated ideal")
    p.add_argument("--gens", required=True, help="generator file, one expression per line")
    p.add_argument("--elem", required=True)
    p.add_argument("--mode", choices=("two", "left", "right"), default="two")

    p = add("chain-stabilize", _cmd_chain_stabilize, "stabilization index of an ascending chain")
    p.add_argument("--chain", required=True, help="blank-line-separated cumulative blocks")
    p.add_argument("--mode", choices=("two", "left", "right"), default="two")

    p = add("tideal-member", _cmd_tideal_member, "bounded substitution-closure membership")
    p.add_argument("--gens", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--max-deg", type=int, default=5)
    p.add_argument("--max-vars", type=int, default=3)

    p = add("specht-search", _cmd_specht_search, "search a small verified generating set")
    p.add_argument("--gens", required=True)
    p.add_argument("--max-deg", type=int, default=5)
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument("--char0-two-vars", action="store_true",
                   help="try two-variable replacements first (rationals only)")

    p = add("check-identity", _cmd_check_identity, "check an identity on a structure algebra",
            field=False)
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--identity", required=True)
    p.add_argument("--mode", choices=("multilinear", "symbolic", "sample"),
                   default="multilinear")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("witt", _cmd_witt, "emit a truncated Witt-type algebra as JSON")
    p.add_argument("-n", type=int, required=True, help="dimension")

    return parser


def _thread_cap() -> int | None:
    raw = os.environ.get("BICOMM_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise BicommError(f"BICOMM_THREADS must be a positive integer, got {raw!r}")
    return n


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    em = _Emitter(args.output)
    try:
        _thread_cap()
        code = args.handler(args, em)
        text = em.render()
    except (BicommError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
