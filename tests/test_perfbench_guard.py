"""The benchmark's instrumentation wraps library functions by name.

`perfbench/layers.py` looks up every name in `LAYER_FUNCTIONS` and
`METRIC_QUERIES` (plus `metric._grow`, `search._sample_connected`,
`search.gray_subset_steps` and `search.exhaustive_profile`) with `getattr`,
so renaming or deleting one of them breaks the traced and counting runs.
This test installs both recorders in a fresh interpreter and runs one small
CLI job under each.  The Counter's BFS counts are pinned too, because it
reads the ball size as `len(_grow(...)[2])`: a change to `_grow`'s return
shape must fail here rather than corrupt `metric.ball_elements`.  Likewise
it reads `len(_sample_connected(...))` for `search.sampled_elements`, so a
connected-sample job pins that count, and it counts the steps of
`gray_subset_steps` for `search.subsets_visited`, reading each step's size
as `step[1]`.  The `exhaustive:` stream walks only the masks in its size
range, one step each, so an exhaustive-descriptor job pins that count.
It counts `sort_key` calls by patching the method on each group class that
defines it (only `Group` does), so a free-group job with an `explicit:`
set, which `FiniteSubset.from_iterable` sorts by `group.sort_key`, pins
that count: a key bound on the instance instead would hide those calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import isoplab.cli
import layers
recorder = layers.{recorder}
recorder.install()
code = isoplab.cli.main({argv!r})
print(json.dumps(getattr(recorder, "counts", None)))
sys.exit(code)
"""


def run_recorded(recorder, argv):
    """Run one CLI job under the recorder; return its stdout lines and counts."""
    script = SCRIPT.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), recorder=recorder, argv=argv
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *lines, counts = proc.stdout.splitlines()
    return lines, json.loads(counts)


@pytest.mark.parametrize("recorder", ["Tracer(0)", "Counter()"])
def test_layers_install_and_run(recorder):
    lines, counts = run_recorded(recorder, ["growth", "--group", "z", "--max-radius", "2"])
    assert lines[-1] == "gamma(2) = 5"
    if recorder == "Counter()":
        assert (counts["metric_builds"], counts["ball_elements"]) == (1, 5)


def test_counter_reads_connected_sample_size():
    argv = ["verify", "theorem", "--group", "heisenberg", "--set", "random:60:3", "--format", "jsonl"]
    lines, counts = run_recorded("Counter()", argv)
    assert json.loads(lines[-1])["extra"]["set_size"] == 60
    assert counts["sampled_elements"] == 60


def test_counter_reads_gray_walk_steps():
    argv = ["verify", "theorem", "--group", "cyclic:8", "--set", "exhaustive:1..3", "--format", "jsonl"]
    lines, counts = run_recorded("Counter()", argv)
    assert len(lines) == 92  # comb(8, 1) + comb(8, 2) + comb(8, 3) sets
    assert counts["subsets_visited"] == 92  # the masks of size 1..3


def test_counter_reads_free_group_sort_keys():
    argv = [
        "verify", "theorem", "--group", "free:2", "--set", "explicit:e,a,b,ab,aB,bA",
        "--format", "jsonl",
    ]
    lines, counts = run_recorded("Counter()", argv)
    assert json.loads(lines[-1])["extra"]["set_size"] == 6
    assert counts["sort_key_calls"] == 6  # from_iterable's sort of the explicit set
