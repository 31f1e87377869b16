"""The flag-table parse against argparse, its reference.

`cli.main` reads a well-formed command line from the flag table and hands
every other line to argparse.  Wherever the table parse returns a
namespace, it must equal argparse's for the same line: same keys, values
and types.  Where it returns None on a line argparse accepts, the line must
be one it leaves to argparse on purpose: a repeated flag or a value that
starts with "-".  The lines come from the grammar of
tests/test_exit_code_contract.py, with `--flag=value` forms, repeated flags
and negative numbers added.  Every benchmark job line must take the table
parse.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab.cli import _parse_well_formed, build_parser
from test_exit_code_contract import VALUES, _command_line

JOBS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "jobs.json").read_text())
INT_FLAGS = ["--d", "--trials", "--ball-cap", "--max-radius", "--phi", "--seed"]


def _argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _variant(argv, rng):
    """argv with some `--flag value` pairs joined as `--flag=value`, one
    flag repeated and an int flag given a negative number, each at random,
    and its flags shuffled."""
    head = [argv[0]]
    rest = argv[1:]
    if argv[0] == "verify":
        head.append(rest.pop(0))
    flags = []  # each flag with the tokens up to the next flag
    for token in rest:
        if token.startswith("--"):
            flags.append([token])
        else:
            flags[-1].append(token)
    # the grammar ends every accept line with a flag accept refuses; drop it
    # one time in two, so that accept lines reach the comparison
    if argv[0] == "accept" and rng.random() < 0.5:
        flags.pop()
    if flags and rng.random() < 0.3:
        name = rng.choice(flags)[0]
        good, bad = VALUES[name]
        value = rng.choice(good + bad)
        flags.append([name] if value is None else [name, value])
    if rng.random() < 0.3:
        name = rng.choice(INT_FLAGS)
        flags.append([name, str(-rng.randrange(1, 4))])
    rng.shuffle(flags)
    out = head
    for tokens in flags:
        if len(tokens) == 2 and rng.random() < 0.4:
            out.append("=".join(tokens))
        else:
            out += tokens
    return out


def _left_to_argparse(argv):
    """Whether argv repeats a flag or gives a value starting with "-"."""
    names = [token.partition("=")[0] for token in argv if token.startswith("--")]
    values = [token.partition("=")[2] if token.startswith("--") else token for token in argv]
    return len(names) != len(set(names)) or any(value.startswith("-") for value in values)


@settings(max_examples=800, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_table_parse_agrees_with_argparse(seed):
    rng = random.Random(seed)
    argv = _variant(_command_line(rng), rng)
    fast = _parse_well_formed(argv)
    reference = _argparse_namespace(argv)
    if fast is not None:
        assert vars(fast) == reference, argv
        assert {key: type(value) for key, value in vars(fast).items()} == {
            key: type(value) for key, value in reference.items()
        }, argv
    elif reference is not None:
        assert _left_to_argparse(argv), argv


@pytest.mark.parametrize("argv", [
    ["profile", "--group=cyclic:8", "--sizes=1..3", "--format=csv"],
    ["growth", "--phi=7", "--group", "z"],
    ["accept", "--seed", "5", "--quick"],
    ["verify", "theorem", "--set", "random:4:7", "--group", "", "--trials", "3"],
], ids=" ".join)
def test_table_parse_takes_well_formed_lines(argv):
    fast = _parse_well_formed(argv)
    assert fast is not None and vars(fast) == _argparse_namespace(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["profile", "-h"], ["profile", "--group", "z", "--sizes", "1", "--"],
    ["profile", "--group", "z", "--sizes", "1", "--group", "z"],
    ["growth", "--group", "z", "--phi", "-1"], ["growth", "--group", "z", "--phi=-1"],
    ["accept", "--quick=1"], ["verify", "--group", "z", "theorem", "--set", "ball:1"],
    ["growth", "--group", "z"], ["growth", "--group", "z", "--phi", "1", "--max-radius", "1"],
    ["profile", "--group", "z"], ["growth", "--group", "z", "--phi", "x"],
    ["profile", "--group", "z", "--sizes", "1", "--format", "xml"],
    ["profile", "--group", "z", "--sizes", "1", "--form", "csv"],
], ids=" ".join)
def test_table_parse_leaves_other_lines_to_argparse(argv):
    assert _parse_well_formed(argv) is None


def _job_lines():
    for spec in JOBS["workloads"].values():
        for template in spec["templates"]:
            yield from template
        yield spec["selfcheck"]
    yield from JOBS["golden"]


@pytest.mark.parametrize("argv", [job["argv"] for job in _job_lines()], ids=" ".join)
def test_every_benchmark_job_takes_the_table_parse(argv):
    fast = _parse_well_formed(list(argv))
    assert fast is not None and vars(fast) == _argparse_namespace(list(argv))
