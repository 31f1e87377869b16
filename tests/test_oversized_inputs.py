"""Inputs whose size is a number on the command line, not memory to spend.

Each case names a structure far larger than any machine holds: a profile
size range of 10^11 sizes, a ball or a lemma31 radius of 10^12 on a finite
group, a growth table of 10^12 rows, an interval of 10^12 points, a
connected sample of 10^12 points, or of 6 * 10^6 words of free:2.  The
exit-code contract still holds: no traceback, and never exit 1, which
means a falsified verdict.

The CLI runs in a child process whose address space is capped at 1 GiB, so
a run that tries to build such a structure fails fast with a MemoryError
instead of taking the machine's memory; never run these cases in process.
Its CPU time is capped at 30 s, so a run that grinds on inside that space
dies of SIGXCPU long before the subprocess timeout.
"""

import resource
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from isoplab import PreconditionViolated, exhaustive_profile, parse_group

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30
CPU_SECONDS = 30

SCRIPT = f"""
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
from isoplab.cli import main
sys.exit(main(sys.argv[1:]))
"""

HUGE = "1000000000000"


def _limit_resources():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


BUDGET = "isoplab: budget exceeded:"


OVERSIZED = [
    # the sizes are checked as they are read, so the refusal comes at n = 4
    (("profile", "--group", "cyclic:8", "--sizes", "1..100000000000"), 4, None),
    # a saturated ball keeps only the layers it built: the whole group is
    # the set, which is not admissible
    (("verify", "theorem", "--group", "cyclic:8", "--set", f"ball:{HUGE}"), 4, None),
    (("verify", "halfmass", "--group", "cyclic:8", "--set", f"random:2:1:ball={HUGE}"), 0, None),
    (("verify", "lemma31", "--group", "dihedral:6", "--set", "explicit:(0,0),(1,0)", "--d", HUGE),
     0, None),
    (("sharpness", "--group", "cyclic:8", "--set", f"random:2:1:ball={HUGE}"), 0, None),
    # 10^12 output rows cannot be held: out of memory is a budget, exit 3
    (("growth", "--group", "cyclic:8", "--max-radius", HUGE), 3, f"{BUDGET} out of memory\n"),
    # an interval of 10^12 points is refused under the ball cap before it is built
    (("sharpness", "--group", "z", "--set", f"interval:{HUGE}..{HUGE}"), 3,
     f"{BUDGET} z: interval:{HUGE}..{HUGE} reaches {HUGE} elements, above cap 5000000\n"),
    # a connected sample larger than the ball cap is refused before its first pick
    (("verify", "theorem", "--group", "free:2", "--set", "random:6000000:1"), 3,
     f"{BUDGET} free:2: random:6000000:1 needs 6000000 elements, above cap 5000000\n"),
    (("verify", "theorem", "--group", "z", "--set", f"random:{HUGE}:1"), 3,
     f"{BUDGET} z: random:{HUGE}:1 needs {HUGE} elements, above cap 5000000\n"),
]


@pytest.mark.parametrize(
    "argv, code, err", OVERSIZED, ids=[" ".join(argv) for argv, _, _ in OVERSIZED]
)
def test_oversized_input_keeps_the_exit_code_contract(argv, code, err):
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", SCRIPT, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_resources,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if err is not None:
        assert proc.stderr == err


def test_profile_checks_each_size_as_it_reads_it():
    def sizes():
        for n in count(1):
            assert n <= 100, "the profile read past the first size it must refuse"
            yield n

    with pytest.raises(PreconditionViolated, match="got n = 4"):
        exhaustive_profile(parse_group("cyclic:8"), sizes())
