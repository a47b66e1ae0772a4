"""The examples in README.md still hold: every `$ tunnelslopes ...` line
prints the lines shown under it, and the `>>>` session runs as written."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from tunnelslopes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)


def fenced_blocks(language):
    """(line number of the first line inside the fence, text) of each block."""
    text = README.read_text()
    for match in FENCE.finditer(text):
        if match.group(1) == language:
            yield text.count("\n", 0, match.start(2)) + 1, match.group(2)


def shell_examples():
    """(line number, argv, expected stdout) of each `$ tunnelslopes` line."""
    examples = []
    for first, block in fenced_blocks("sh"):
        for offset, line in enumerate(block.splitlines()):
            if line.startswith("$ "):
                command = shlex.split(line[2:])
                assert command[0] == "tunnelslopes", line
                examples.append([first + offset, command[1:], ""])
            elif examples and examples[-1][0] >= first:
                examples[-1][2] += line + "\n"
    return [tuple(e) for e in examples]


SHELL_EXAMPLES = shell_examples()


def test_examples_found():
    # convert x3, convert-range, slopes x2, classify x2, mirror, link.
    assert len(SHELL_EXAMPLES) == 10


@pytest.mark.parametrize(
    "argv,expected", [e[1:] for e in SHELL_EXAMPLES], ids=[f"line {e[0]}" for e in SHELL_EXAMPLES]
)
def test_shell_example(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_python_session():
    [(first, block)] = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), first - 1)
    assert test.examples
    assert doctest.DocTestRunner().run(test) == (0, len(test.examples))
