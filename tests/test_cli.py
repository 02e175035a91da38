"""End-to-end command-line checks with frozen outputs."""

import json
import sys

import pytest

from bicomm.cli import _build_parser, main

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
