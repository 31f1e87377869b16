"""Every `isoplab` command line in README's fenced blocks parses, and each
one but `accept` (seconds per run) exits 0, so the docs cannot drift from
the flags; and the fenced `python` library example runs."""

import shlex
from pathlib import Path

import pytest

from isoplab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_commands() -> list[list[str]]:
    """The argument lists of the `isoplab` lines in fenced blocks, comments dropped."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("isoplab "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = _fenced_commands()


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(argv):
    build_parser().parse_args(argv)
    if argv[0] != "accept":
        assert main(argv) == 0


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("{'kind': 'theorem'")
