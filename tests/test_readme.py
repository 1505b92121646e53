"""The README's CLI block is accurate: each `fibsums ...` line whose comment is an
output value or an `error:` line prints it and exits with the stated code.

A comment is `<expected>` or `<expected> (exit N)`; without `(exit N)` the exit
code is 0.  An `error:` comment is the first line of stderr, any other expected
text is the first line of stdout, and a trailing `...` matches any rest of the
line.  Comments that only describe the command are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

from fibsums.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# output values: an integer or fraction, a closed-form verdict, or an error line
OUTPUT = re.compile(r"-?\d+(/\d+)?|lhs=\S+ rhs=\S+ (MATCH|MISMATCH)|error: .*")
EXIT = re.compile(r"(.*?)\s+\(exit (\d+)\)")


def cli_lines() -> list[tuple[str, str, int]]:
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        expected, code = comment, 0
        if m := EXIT.fullmatch(comment):
            expected, code = m.group(1), int(m.group(2))
        if command.startswith("fibsums ") and OUTPUT.fullmatch(expected):
            lines.append((command, expected, code))
    return lines


CLI_LINES = cli_lines()


def test_the_block_has_checked_lines():
    assert len(CLI_LINES) >= 8
    assert any(expected.startswith("error:") for _, expected, _ in CLI_LINES)


@pytest.mark.parametrize("command,expected,code", CLI_LINES, ids=[c for c, _, _ in CLI_LINES])
def test_cli_line(capsys, command, expected, code):
    assert main(shlex.split(command)[1:]) == code
    out = capsys.readouterr()
    first = (out.err if expected.startswith("error:") else out.out).splitlines()[0]
    if expected.endswith("..."):
        assert first.startswith(expected[:-3])
    else:
        assert first == expected
