"""README's examples, run as written: the Python quick tour, and each
`$ bicomm ...` example through cli.main in a scratch directory, where the
`$ cat` blocks are the input files that the examples read."""

import re
import shlex
from pathlib import Path

from bicomm import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_NEGATIVE = ("NOT-MEMBER", "Fails", "UNVERIFIED-WITHIN-WINDOW", "NOT-STABLE-WITHIN-INPUT")


def _blocks(lang):
    return [body for tag, body in _BLOCK.findall(README) if tag == lang]


def _sessions():
    """(command, output) pairs of the shell examples in README order: a
    command starts with '$ ', a trailing backslash continues it on the next
    line, and its output runs up to the next command, less trailing blank
    lines."""
    sessions = []
    for body in _blocks(""):
        if not body.startswith("$ "):
            continue
        for line in body.splitlines():
            if line.startswith("$ "):
                sessions.append([line[2:], []])
            elif sessions[-1][0].endswith("\\"):
                sessions[-1][0] = sessions[-1][0][:-1] + line
            else:
                sessions[-1][1].append(line)
    out = []
    for command, lines in sessions:
        while lines and not lines[-1]:
            lines.pop()
        out.append((command, "".join(line + "\n" for line in lines)))
    return out


def test_python_quick_tour(capsys):
    (tour,) = _blocks("python")
    ns = {}
    exec(compile(tour, "README.md", "exec"), ns)
    printed = capsys.readouterr().out.splitlines()
    (rem,) = re.findall(r"^print\(rem\) +# (\S+)$", tour, re.M)
    assert len(printed) == 3 and printed[0] == str(ns["rem"]) == rem
    trace = ns["trace"]
    assert trace and all(a > b for a, b in zip(trace, trace[1:]))
    assert ns["result"].verified


def test_shell_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sessions = _sessions()
    assert len(sessions) == len(re.findall(r"^\$ ", README, re.M))
    for command, expected in sessions:
        argv = shlex.split(command)
        if argv[0] == "cat":
            (name,) = argv[1:]
            path = tmp_path / name
            if path.exists():  # written by an earlier example
                assert path.read_text() == expected, command
            else:
                path.write_text(expected)
            continue
        assert argv[0] == "bicomm", command
        redirect = None
        if argv[-2:-1] == [">"]:
            argv, redirect = argv[:-2], argv[-1]
        code = cli.main(argv[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (1 if out.startswith(_NEGATIVE) else 0, ""), command
        if redirect is None:
            assert out == expected, command
        else:
            assert expected == "", command
            (tmp_path / redirect).write_text(out)
