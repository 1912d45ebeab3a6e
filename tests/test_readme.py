"""The `ballpack` command lines of README.md run as the README shows them.

Every ``ballpack ...`` line of the README's ``sh`` blocks runs through
``cli.main``, in order, in one temporary working directory.  The ``# ...``
lines after a command are its output, line for line, where a bare ``# ...``
stands for any run of lines; a command shown without output must exit 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from ballpack.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """(argv, expected output lines) of each ballpack command, in order."""
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.splitlines():
            if line.startswith("ballpack "):
                out.append((shlex.split(line)[1:], []))
            elif line.startswith("#") and out:
                out[-1][1].append(line[2:])
    return out


def _matches(expected: list, got: list) -> bool:
    if not expected:
        return not got
    if expected[0] == "...":
        return any(_matches(expected[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and _matches(expected[1:], got[1:])


def test_readme_command_lines_print_what_the_readme_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BALLPACK_OUT_DIR", raising=False)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv, expected in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        got = out.getvalue().splitlines()
        if expected:
            assert _matches(expected, got), (argv, got)
        else:
            assert rc == 0, argv
