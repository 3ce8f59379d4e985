"""The command line examples in README.md, run through ``ultratop.cli.main``.

An example is a ``$ ...`` command in a ``sh`` block whose output is shown:
either the rest of its block, or the ``json`` block right after it.  JSON is
compared as parsed values (the README may order keys for reading); any
other output, such as DOT, byte for byte.  An example without a shown
output is not run.
"""

import io
import json
import re
import shlex
from pathlib import Path

import pytest

from ultratop.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"```(\w*)\n(.*?)```", re.S)


def complete(command):
    """Whether a shell command has closed its quotes and does not end in a pipe."""
    try:
        return shlex.split(command)[-1] != "|"
    except ValueError:
        return False


def examples():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    out = []
    for k, (lang, body) in enumerate(blocks):
        if lang != "sh" or not body.startswith("$ "):
            continue
        lines = body[2:].splitlines(keepends=True)
        n = 1
        while n < len(lines) and not complete("".join(lines[:n])):
            n += 1
        command, shown = "".join(lines[:n]), "".join(lines[n:])
        if shown:
            out.append((command, "text", shown))
        elif k + 1 < len(blocks) and blocks[k + 1][0] == "json":
            out.append((command, "json", blocks[k + 1][1]))
    return out


EXAMPLES = examples()


def test_the_readme_has_examples_of_both_kinds():
    kinds = [kind for _, kind, _ in EXAMPLES]
    assert kinds.count("json") >= 5 and kinds.count("text") >= 1


@pytest.mark.parametrize(
    "command, kind, shown", EXAMPLES, ids=[c.split("ultratop ")[-1].strip() for c, _, _ in EXAMPLES]
)
def test_readme_example_output(command, kind, shown, capsys, monkeypatch):
    words = shlex.split(command)
    stdin = ""
    if "|" in words:
        pipe = words.index("|")
        assert words[0] == "echo" and pipe == 2, "only `echo '<doc>' | ultratop ...` pipes run"
        stdin, words = words[1] + "\n", words[pipe + 1:]
    assert words[0] == "ultratop"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(words[1:]) == 0
    out = capsys.readouterr().out
    if kind == "json":
        assert json.loads(out) == json.loads(shown)
    else:
        assert out == shown
