"""The exit-code contract on command lines drawn from a small grammar.

Every command, good and bad group specs, every set descriptor kind, stray
flags, small caps and all three formats.  Whatever the line, the run exits
0 (ok), 2 (parse or usage), 3 (budget) or 4 (precondition), never with a
traceback; a failing run ends stderr with an `isoplab` line, argparse's
`isoplab verify: error:` included, and a passing run writes nothing there.
Exit 1 means a falsified verdict, which no line here can produce.

A valid `accept` takes about half a second, which tier-1 pays once in
tests/test_acceptance.py; here `accept` always meets a flag it refuses, so
the drawn lines stay small and fast.
"""

import contextlib
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab.cli import main

# each flag's values, good and bad; a bad one is drawn one time in ten
VALUES = {
    "--group": (
        ["z", "zd:2", "free:2", "cyclic:8", "dihedral:4", "symmetric:3", "heisenberg", "heisenberg:2"],
        ["zd:0", "cyclic:1", "free:26", "dihedral:x", "klein", ""],
    ),
    "--set": (
        ["explicit:0", "explicit:0,1", "explicit:(0,0),(1,0)", "explicit:aB", "explicit:[2,1,3]",
         "ball:0", "ball:1", "ball:2", "random:4:7", "random:6:1:ball=2",
         "exhaustive:1..2", "exhaustive:30..40", "interval:1..4", "interval:1..30"],
        ["explicit:(1,2),(3", "ball:x", "random:3:18446744073709551616", "random:0:1",
         "exhaustive:2..1", "interval:5..2", "bogus:1"],
    ),
    "--d": (["0", "1", "2"], ["-1", "x"]),
    "--gamma0": (["+1", "+1+1", "-2", "a", "aB", "r", "Rs", "xY", "t1", "e"], ["+01", "zz"]),
    "--trials": (["1", "3"], ["0"]),
    "--ball-cap": (["1", "5", "50"], ["0"]),
    "--format": (["jsonl", "csv", "human"], ["xml"]),
    "--sizes": (["1..3", "2", "1"], ["1..100", "0..2", "x"]),
    "--max-radius": (["0", "3"], ["-1"]),
    "--phi": (["0", "7"], ["-2"]),
    "--seed": (["0", "5"], ["-1", "18446744073709551616"]),
    "--quick": ([None], [None]),
}
# the flags each command (and verify check) reads: those it needs, drawn
# nine times in ten, and those it may take, drawn one time in two; a|b
# needs one of a and b
READS = {
    "growth": (["--group", "--max-radius|--phi"], ["--format", "--ball-cap"]),
    "verify": (["--group", "--set"], ["--format", "--ball-cap"]),
    "lemma31": (["--d"], []),
    "transport": (["--gamma0"], ["--d"]),
    "profile": (["--group", "--sizes"], ["--format"]),
    "sharpness": (["--group", "--set"], ["--format", "--ball-cap"]),
    "accept": ([], ["--quick", "--seed", "--format"]),
}
COMMANDS = ["growth", "verify", "profile", "sharpness", "accept"]
CHECKS = ["lemma31", "halfmass", "transport", "theorem", "csc", "boundary-cmp", "prove"]
ACCEPT_REFUSES = sorted(set(VALUES) - set(READS["accept"][1]))


def _command_line(rng: random.Random) -> list[str]:
    def flag(name):
        good, bad = VALUES[name]
        value = rng.choice(good if rng.random() < 0.9 else bad)
        return [name] if value is None else [name, value]

    command = rng.choice(COMMANDS)
    argv = [command]
    needs, takes = READS[command]
    if command == "verify":
        check = rng.choice(CHECKS)
        argv.append(check)
        more_needs, more_takes = READS.get(check, ([], []))
        needs, takes = needs + more_needs, takes + more_takes
    for name in needs:
        if rng.random() < 0.9:
            argv += flag(rng.choice(name.split("|")))
    for name in takes:
        if rng.random() < 0.5:
            argv += flag(name)
    # a stray flag, which the command may not read, one time in five;
    # --trials comes only so, since it refuses every set but a random: one
    if rng.random() < 0.2:
        argv += flag(rng.choice(sorted(VALUES)))
    if command == "accept":
        argv += flag(rng.choice(ACCEPT_REFUSES))
    return argv


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_every_command_line_keeps_the_exit_code_contract(seed):
    argv = _command_line(random.Random(seed))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("isoplab"), (argv, err)
    else:
        assert err == "", argv
