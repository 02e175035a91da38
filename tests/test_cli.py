"""End-to-end command-line checks with frozen outputs."""

import json
import random
import sys
from fractions import Fraction

import pytest

from bicomm import cli, structalg
from bicomm.cli import _build_parser, main
from bicomm.scalars import Field
from bicomm.structalg import StructureAlgebra, witt_truncated

from conftest import QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_and_mul(tmp_path, capsys):
    code, out, _ = run(capsys, "normalize", "(x1*x2)")
    assert (code, out) == (0, "y1*z2\n")
    code, out, _ = run(capsys, "normalize", "x1*(x1*x2) - (x1*x1)*x2 + 3*x2")
    assert (code, out) == (0, "y1^2*z2 - y1*z1*z2 + 3*x2\n")
    code, out, _ = run(capsys, "mul", "x1 + x2", "x1")
    assert (code, out) == (0, "y2*z1 + y1*z1\n")
    code, out, _ = run(capsys, "mul", "x1", "x1", "--field", "fp:2")
    assert (code, out) == (0, "y1*z1\n")
    # a leading minus sign reaches the parser after "--" or inside "--opt=value"
    assert run(capsys, "normalize", "--", "-x1") == (0, "-x1\n", "")
    assert run(capsys, "mul", "--", "-2*x1", "x2") == (0, "-2*y1*z2\n", "")
    gens = tmp_path / "gens.txt"
    gens.write_text("(x1*x1)\n")
    assert run(capsys, "ideal-member", "--gens", str(gens), "--elem=-x1*(x1*x1)") == (0, "MEMBER\n", "")
    # products nested deeper than the interpreter's recursion limit
    for factors in (1201, 5001):
        left = "(" * (factors - 2) + "x1*x1" + ")*x1" * (factors - 2)
        right = "x1*(" * (factors - 2) + "x1*x1" + ")" * (factors - 2)
        n = factors - 1
        assert run(capsys, "normalize", left) == (0, f"y1*z1^{n}\n", "")
        assert run(capsys, "normalize", right) == (0, f"y1^{n}*z1\n", "")


def test_dimension_commands_and_output_modes(capsys):
    code, out, _ = run(capsys, "hilbert", "-d", "2", "-n", "3")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "codim", "-n", "4")
    assert (code, out) == (0, "14\n")
    code, out, _ = run(capsys, "codim", "-n", "4", "--output", "tsv")
    assert (code, out) == (0, "dimension\t14\n")
    code, out, _ = run(capsys, "codim", "-n", "4", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"dimension": 14}
    # the longest count the default int-to-str limit of 4300 digits prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "codim", "-n", "14284") == (0, f"{2**14284 - 2}\n", "")
    finally:
        sys.set_int_max_str_digits(limit)


def test_order_comparisons(capsys):
    assert run(capsys, "weight-cmp", "y1*z1", "y1*z2")[:2] == (0, "<\n")
    assert run(capsys, "weight-cmp", "y2*z1", "y1*z2")[:2] == (0, ">\n")
    assert run(capsys, "weight-cmp", "y1*z1", "y1*z1")[:2] == (0, "=\n")
    assert run(capsys, "higman-cmp", "y1*z1", "y1^2*z1")[:2] == (0, "LEQ\n")
    assert run(capsys, "higman-cmp", "y1^2*z1", "y1*z1")[:2] == (0, "GEQ\n")
    assert run(capsys, "higman-cmp", "y1*z1", "y1*z1")[:2] == (0, "EQ\n")
    assert run(capsys, "higman-cmp", "y1*z1", "y2*z1")[:2] == (0, "INCOMPARABLE\n")


def test_ideal_member_with_certificates(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("# generators\n(x1*x1)\n")
    code, out, _ = run(capsys, "ideal-member", "--gens", str(gens), "--elem", "x1*(x1*x1)", "--verbose")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "MEMBER"
    assert lines[1].startswith("cofactor: b")
    code, out, _ = run(capsys, "ideal-member", "--gens", str(gens), "--elem", "(x2*x2)")
    assert (code, out) == (1, "NOT-MEMBER\n")
    code, out, _ = run(
        capsys, "ideal-member", "--gens", str(gens), "--elem", "x1*(x1*x1)", "--mode", "left"
    )
    assert (code, out) == (0, "MEMBER\n")
    code, out, _ = run(
        capsys, "ideal-member", "--gens", str(gens), "--elem", "x1*(x1*x1)", "--mode", "right"
    )
    assert (code, out) == (1, "NOT-MEMBER\n")


def test_ideal_member_certificate_bytes(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1 + (x1*x2)\n(x2*x2) - (x1*x1)\n")
    elem = "x1 + (x1*x2) + 2*((x2*x2)*x3) - 2*((x1*x1)*x3) + x2*(x1 + (x1*x2))"
    over_q = {
        "human": "MEMBER\nmu: g1 1\ncofactor: b7 1\ncofactor: b9 2\ncofactor: b10 1\n",
        "tsv": "member\tMEMBER\nmu\tg1 1\ncofactor\tb7 1\ncofactor\tb9 2\ncofactor\tb10 1\n",
        "json": '{"member": "MEMBER", "mu": "g1 1", "cofactor": ["b7 1", "b9 2", "b10 1"]}\n',
    }
    want = {
        "q": over_q,
        "fp:3": over_q,
        "fp:2": {
            "human": "MEMBER\nmu: g1 1\ncofactor: b5 1\ncofactor: b7 1\n",
            "tsv": "member\tMEMBER\nmu\tg1 1\ncofactor\tb5 1\ncofactor\tb7 1\n",
            "json": '{"member": "MEMBER", "mu": "g1 1", "cofactor": ["b5 1", "b7 1"]}\n',
        },
    }
    for field, outputs in want.items():
        for mode, out in outputs.items():
            got = run(capsys, "ideal-member", "--gens", str(gens), "--elem", elem, "--verbose",
                      "--field", field, "--output", mode)
            assert got == (0, out, ""), (field, mode)


def test_chain_stabilize(tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    chain.write_text("(x1*x1)\n\n(x1*x1)*x1\n\nx1*(x1*x1)\n")
    assert run(capsys, "chain-stabilize", "--chain", str(chain))[:2] == (0, "1\n")
    assert run(capsys, "chain-stabilize", "--chain", str(chain), "--mode", "left")[:2] == (0, "2\n")
    growing = tmp_path / "growing.txt"
    growing.write_text("(x1*x1)*x1\n\n(x1*x1)*(x1*x1)... ")
    growing.write_text("(x1*x1)\n\n(x2*x2)\n")
    code, out, _ = run(capsys, "chain-stabilize", "--chain", str(growing))
    assert (code, out) == (1, "NOT-STABLE-WITHIN-INPUT\n")


def test_tideal_member(tmp_path, capsys):
    gens = tmp_path / "sq.txt"
    gens.write_text("(x1*x1)\n")
    code, out, _ = run(
        capsys, "tideal-member", "--gens", str(gens), "--elem", "(x1*x2) + (x2*x1)",
        "--max-deg", "3", "--max-vars", "2",
    )
    assert (code, out) == (0, "MEMBER\n")
    code, out, _ = run(
        capsys, "tideal-member", "--gens", str(gens), "--elem", "(x1*x2) - (x2*x1)",
        "--max-deg", "3", "--max-vars", "2",
    )
    assert (code, out) == (1, "NOT-MEMBER\n")
    code, out, _ = run(
        capsys, "tideal-member", "--gens", str(gens), "--elem", "(x1*x2) - (x2*x1)",
        "--max-deg", "3", "--max-vars", "2", "--field", "fp:2",
    )
    assert (code, out) == (0, "MEMBER\n")


def test_specht_search(tmp_path, capsys):
    gens = tmp_path / "comm.txt"
    gens.write_text("(x1*x2) - (x2*x1)\n")
    code, out, _ = run(capsys, "specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2")
    assert code == 0
    assert out == "basis 1: -y2*z1 + y1*z2\nantichain: y2*z1\nVERIFIED\n"
    code, out, _ = run(
        capsys, "specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "basis": "-y2*z1 + y1*z2",
        "antichain": "y2*z1",
        "verdict": "VERIFIED",
    }


def test_specht_search_collects_repeated_facts_into_arrays(tmp_path, capsys):
    gens = tmp_path / "two.txt"
    gens.write_text("(x1*x2) - (x2*x1)\n(x1*x1)\n")
    code, out, _ = run(
        capsys, "specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2",
        "--output", "json",
    )
    obj = json.loads(out)
    assert isinstance(obj["basis"], list) and len(obj["basis"]) == 2
    assert code in (0, 1)


def test_witt_feeds_check_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "witt", "-n", "3")
    assert code == 0
    algebra = tmp_path / "w3.json"
    algebra.write_text(out)
    code, out, _ = run(
        capsys, "check-identity", "--algebra", str(algebra),
        "--identity", "x1*(x2*x3) - x2*(x1*x3)",
    )
    assert (code, out) == (0, "Holds\n")
    code, out, _ = run(
        capsys, "check-identity", "--algebra", str(algebra),
        "--identity", "((x1*x2)*x3) - ((x1*x3)*x2)",
    )
    assert (code, out) == (1, "Fails\nwitness: (e1,e0,e1)\n")
    code, out, _ = run(
        capsys, "check-identity", "--algebra", str(algebra),
        "--identity", "((x1*x2)*x3) - ((x1*x3)*x2)", "--mode", "sample", "--seed", "5",
    )
    assert code == 1
    assert out.splitlines()[0] == "Fails"
    assert out.splitlines()[1].startswith("witness: ({0:")
    # trying no sample at all certifies nothing
    for samples in ("0", "-3"):
        code, out, err = run(
            capsys, "check-identity", "--algebra", str(algebra),
            "--identity", "x1*(x2*x3) - x2*(x1*x3)", "--mode", "sample", "--samples", samples,
        )
        assert (code, out, err) == (3, "", f"error: need at least one sample, got {samples}\n")


def test_exit_codes_for_errors(tmp_path, capsys):
    assert run(capsys, "codim")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "normalize", "x1*x2*x3")[0] == 3
    assert run(capsys, "normalize", "(x1*x2)", "--field", "fp:4")[0] == 3
    assert run(capsys, "ideal-member", "--gens", str(tmp_path / "nope.txt"), "--elem", "x1")[0] == 3
    code, _, err = run(capsys, "normalize", "x1*x2*x3")
    assert "column" in err
    # digit-like characters that are not decimal digits are refused as such
    for expr, message in (
        ("x1 + \u00b2", "unexpected character '\u00b2' (line 1, column 6)"),
        ("2\u00b2*x1", "unexpected character '\u00b2' (line 1, column 2)"),
        ("x\u00b2", "expected digits after 'x' (line 1, column 1)"),
    ):
        assert run(capsys, "normalize", expr) == (3, "", f"error: {message}\n")
    # malformed algebra files exit with code 3 and an error line, not a traceback
    bad_algebras = [
        {"dim": 2, "table": []},
        {"field": "q", "table": []},
        [2, "q"],
        {"dim": 2, "field": "q", "table": [[0, 1]]},
        {"dim": 2, "field": "q", "table": [[0, 1, 1]]},
        {"dim": 2, "field": "q", "table": [[None, 1, [1, 0]]]},
        # only JSON integers and strings are integers: int() would truncate
        # 0.5 to 0 and 1.9 to 1, read true as 1, and overflow on 1e400
        {"dim": 1, "field": "q", "table": [[0, 0, [0.5]]]},
        '{"dim": 1, "field": "q", "table": [[0, 0, [1e400]]]}',
        {"dim": 1, "field": "q", "table": [[0, 0, [True]]]},
        {"dim": 1.9, "field": "q", "table": []},
        {"dim": 2, "field": "fp:2", "table": [[0, 0, [1, 1]], [0, 0, [0, 1]]]},
        # nested deeper than json.loads can recurse
        "[" * 100000,
    ]
    for k, obj in enumerate(bad_algebras):
        path = tmp_path / f"bad{k}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        code, out, err = run(
            capsys, "check-identity", "--algebra", str(path), "--identity", "(x1*x2) - (x2*x1)"
        )
        assert (code, out) == (3, ""), obj
        assert err.startswith("error: "), obj
    # counts too long to print under the int-to-str limit: refused before
    # they are built (codim, the first hilbert) or when the output is rendered
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (
            ["codim", "-n", "14400"],
            ["codim", "-n", "14285"],
            ["codim", "-n", "9" * 4000, "--output", "tsv"],
            ["hilbert", "-d", "10000", "-n", "10000"],
            ["hilbert", "-d", "9" * 400, "-n", "9" * 400],
            ["hilbert", "-d", "7000", "-n", "7000", "--output", "json"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv[:3]
            assert err.startswith("error: ") and "4300 digits" in err, argv[:3]
    finally:
        sys.set_int_max_str_digits(limit)


def test_repeated_calls_share_one_parser(tmp_path, capsys):
    """main builds its parser once per process; usage errors, help, domain
    errors and every output mode behave the same on every call."""
    gens = tmp_path / "comm.txt"
    gens.write_text("(x1*x2) - (x2*x1)\n")
    sequence = [
        ["codim"],
        ["--help"],
        ["normalize", "x1*x2*x3"],
        ["normalize", "x1*(x1*x2) - (x1*x1)*x2"],
        ["hilbert", "-d", "2", "-n", "3", "--output", "tsv"],
        ["no-such-command"],
        ["codim", "-n", "5", "--output", "json"],
        ["specht-search", "--help"],
        ["ideal-member", "--gens", str(gens), "--elem", "(x1*x2)*x2 - (x2*x1)*x2", "--verbose"],
        ["specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2",
         "--output", "json"],
        ["normalize", "(x1*x2)", "--field", "fp:4"],
        ["mul", "x1", "--output", "xml"],
        ["codim"],
    ]
    _build_parser.cache_clear()
    first = {}
    for _ in range(2):
        for argv in sequence:
            got = run(capsys, *argv)
            assert got == first.setdefault(tuple(argv), got), argv
    assert _build_parser.cache_info().misses == 1
    codes = {code for code, _, _ in first.values()}
    assert codes == {0, 2, 3}
    assert first[("--help",)][1].startswith("usage: bicomm")
    assert first[("codim",)][2].startswith("usage: bicomm codim")


def test_thread_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("BICOMM_THREADS", "abc")
    code, _, err = run(capsys, "codim", "-n", "3")
    assert code == 3
    assert "BICOMM_THREADS" in err
    monkeypatch.setenv("BICOMM_THREADS", "0")
    assert run(capsys, "codim", "-n", "3")[0] == 3
    monkeypatch.setenv("BICOMM_THREADS", "4")
    assert run(capsys, "codim", "-n", "3")[:2] == (0, "6\n")


def test_outputs_are_deterministic_across_runs_and_threads(tmp_path, monkeypatch, capsys):
    gens = tmp_path / "comm.txt"
    gens.write_text("(x1*x2) - (x2*x1)\n")
    commands = [
        ["normalize", "x1*(x1*x2) - (x1*x1)*x2"],
        ["specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2"],
        ["ideal-member", "--gens", str(gens), "--elem", "(x1*x2)*x2 - (x2*x1)*x2", "--verbose"],
        ["witt", "-n", "4", "--field", "fp:3"],
    ]
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("BICOMM_THREADS", threads)
        for _ in range(5):
            snapshot = []
            for argv in commands:
                code, out, _ = run(capsys, *argv)
                snapshot.append((code, out))
            outputs.append(snapshot)
    assert all(snap == outputs[0] for snap in outputs[1:])


def test_generator_files_allow_comments_and_blanks(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("# leading comment\n\n(x1*x1)  # inline\n\n")
    code, out, _ = run(capsys, "ideal-member", "--gens", str(gens), "--elem", "(x1*x1)")
    assert (code, out) == (0, "MEMBER\n")


def test_check_identity_on_deeply_nested_products(tmp_path, capsys):
    """Evaluation folds a tree on an explicit stack, so an identity nested
    deeper than the interpreter's recursion limit still gets a verdict."""
    algebra = tmp_path / "idempotent.json"
    algebra.write_text(json.dumps({"dim": 1, "field": "q", "table": [[0, 0, ["1"]]]}))
    factors = 1201
    left = "(" * (factors - 2) + "x1*x1" + ")*x1" * (factors - 2)
    right = "x1*(" * (factors - 2) + "x1*x1" + ")" * (factors - 2)
    for identity, want in (
        (left, (1, "Fails\nwitness: none\n", "")),
        (right, (1, "Fails\nwitness: none\n", "")),
        (f"({left}) - ({right})", (0, "Holds\n", "")),
    ):
        got = run(capsys, "check-identity", "--algebra", str(algebra),
                  "--identity", identity, "--mode", "symbolic")
        assert got == want


class _FractionRationals(Field):
    """The field with every rational scalar held as a Fraction: zero, one
    and from_int give Fraction(0), Fraction(1) and Fraction(n) over Q, the
    reference for the int representation of integral values."""

    def __init__(self, characteristic):
        super().__init__(characteristic)
        if not characteristic:
            self.zero, self.one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return super().from_int(n) if self.characteristic else Fraction(n)


_COEFFS = ["", "", "2*", "-", "-3*", "1/2*", "-4/6*", "6/3*"]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return f"x{rng.randint(1, 3)}"
    return f"({_random_tree(rng, depth - 1)})*({_random_tree(rng, depth - 1)})"


def _random_sum(rng, terms=3, depth=3):
    text = ""
    for k in range(rng.randint(1, terms)):
        coeff = rng.choice(_COEFFS)
        sign = "" if k == 0 or coeff.startswith("-") else "+ "
        text += f" {sign}{coeff}{_random_tree(rng, depth)}"
    return text.strip()


def _differential_corpus(tmp_path):
    """Seeded argv lists over q for every subcommand that computes with
    scalars; paths point into tmp_path."""
    rng = random.Random(4099)
    corpus = [["normalize", "--", _random_sum(rng, 4, 4)] for _ in range(8)]
    corpus += [["mul", "--", _random_sum(rng), _random_sum(rng)] for _ in range(6)]
    for k in range(3):
        gens = tmp_path / f"gens{k}.txt"
        gens.write_text(f"{_random_sum(rng, 2, 1)}\n{_random_sum(rng, 2, 2)}\n")
        g1, g2 = gens.read_text().splitlines()
        member = f"-2/3*({g1}) + x{k + 1}*({g2}) + 3*(({g2})*x2)"
        for elem in (member, _random_sum(rng)):
            for mode in ("two", "left", "right"):
                corpus.append(["ideal-member", "--gens", str(gens), "--elem", elem,
                               "--mode", mode, "--verbose"])
        chain = tmp_path / f"chain{k}.txt"
        chain.write_text(f"{g1}\n\n{g2}\n\n{_random_sum(rng, 2, 2)}\n\n{member}\n")
        for mode in ("two", "left", "right"):
            corpus.append(["chain-stabilize", "--chain", str(chain), "--mode", mode])
    comm = tmp_path / "comm.txt"
    comm.write_text("3/2*(x1*x2) - 3/2*(x2*x1)\n")
    square = tmp_path / "square.txt"
    square.write_text("-2*(x1*x1)\n")
    for gens in (comm, square):
        for elem in ("(x1*x2) + (x2*x1)", "1/3*(x1*x2) - 1/3*(x2*x1)", "x1*(x2*x2) - 2*(x2*(x1*x2))"):
            corpus.append(["tideal-member", "--gens", str(gens), "--elem", elem,
                           "--max-deg", "3", "--max-vars", "2"])
        corpus.append(["specht-search", "--gens", str(gens), "--max-deg", "4", "--max-vars", "2"])
    table = {(i, j): [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
             for i in range(3) for j in range(3) if rng.random() < 0.6}
    algebras = [witt_truncated(3, QQ), StructureAlgebra(3, QQ, table)]
    identities = ["x1*(x2*x3) - x2*(x1*x3)", "((x1*x2)*x3) - ((x1*x3)*x2)",
                  "1/2*(x1*x2) - 1/2*(x2*x1)", "(x1*x1)*x2 - 2*(x2*(x1*x1))"]
    for k, alg in enumerate(algebras):
        path = tmp_path / f"alg{k}.json"
        path.write_text(alg.to_json())
        for identity in identities:
            for mode in ("multilinear", "symbolic", "sample"):
                corpus.append(["check-identity", "--algebra", str(path), "--identity", identity,
                               "--mode", mode, "--samples", "20", "--seed", str(k)])
    return corpus


def test_integral_rationals_print_as_their_fraction_forms(tmp_path, monkeypatch, capsys):
    """Over q, stdout, stderr and exit codes are the same whether integral
    scalars are ints or Fractions, in every output mode."""
    corpus = _differential_corpus(tmp_path)
    outputs = {}
    for field_class in (Field, _FractionRationals):
        monkeypatch.setattr(cli, "Field", field_class)
        monkeypatch.setattr(structalg, "Field", field_class)
        assert type(cli.Field.parse("q").from_int(2)) is (int if field_class is Field else Fraction)
        outputs[field_class] = [run(capsys, argv[0], "--output", mode, *argv[1:])
                                for argv in corpus for mode in ("human", "tsv", "json")]
    assert outputs[Field] == outputs[_FractionRationals]
    codes = [code for code, _, _ in outputs[Field]]
    assert {0, 1} <= set(codes)


def test_indices_too_large_to_pack_behave_as_the_trees_do(capsys):
    """An index above 2^20 cannot be packed, so these inputs run through the
    trees: a lone leaf prints, trees that cancel print 0, a product exits 3,
    and a later syntax error wins over the index."""
    assert run(capsys, "normalize", "x2000000") == (0, "x2000000\n", "")
    assert run(capsys, "normalize", "x2000000*x1 - x2000000*x1") == (0, "0\n", "")
    assert run(capsys, "normalize", "x2000000*x1") == (
        3, "", "error: variable index must be at most 2^20, got 2000000\n"
    )
    assert run(capsys, "normalize", "x2000000*x1 + )") == (
        3, "", "error: expected a factor, got ')' (line 1, column 15)\n"
    )
