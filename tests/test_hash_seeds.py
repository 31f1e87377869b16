"""No output depends on the hash seed.

Free-group words are byte strings, whose hashes change with
`PYTHONHASHSEED`, and BFS removes the repeats of a new layer through a set
of the last two layers.  Criterion 8 reruns the pipeline inside one
process, so it cannot see output that follows set or dict iteration order.
Here a few pinned commands run in one child process per hash seed, and
each must print the bytes its pin gives under both seeds: the `accept
--quick` and `profile` goldens, a free:2 `halfmass` job and a free:2
`theorem` job from `perfbench/jobs.json` (read, never written), a
free:3 `growth` table, and the free:2 `transport` and `halfmass` pins of
`test_cli_output_digests`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = json.loads((ROOT / "perfbench" / "jobs.json").read_text())


def _job(*prefix):
    """The first job of jobs.json whose argv starts with prefix."""
    jobs = list(JOBS["golden"])
    for spec in JOBS["workloads"].values():
        jobs += [job for template in spec["templates"] for job in template]
    return next((job["argv"], job["digest"]) for job in jobs if job["argv"][: len(prefix)] == list(prefix))


PINNED = [
    _job("accept", "--quick", "--seed", "7"),
    _job("profile", "--group", "dihedral:6"),
    _job("verify", "halfmass", "--group", "free:2"),
    _job("verify", "theorem", "--group", "free:2"),
    (["growth", "--group", "free:3", "--max-radius", "6", "--format", "csv"], "62eba235c1df7142"),
    # the transport-free:2 and halfmass-free:2 pins of test_cli_output_digests
    (["verify", "transport", "--group", "free:2", "--set", "random:20:4", "--gamma0", "abA",
      "--format", "jsonl"], "13d1c0ad0de4076d"),
    (["verify", "halfmass", "--group", "free:2", "--set", "random:40:3:ball=4",
      "--format", "jsonl"], "5115a7de41327aa4"),
]

SCRIPT = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, {src!r})
from isoplab.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
"""


@pytest.mark.parametrize("seed", ["1", "99"])
def test_pinned_outputs_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(ROOT / "src")),
         json.dumps([argv for argv, _ in PINNED])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [x for _, digest in PINNED for x in ("0", digest)]
