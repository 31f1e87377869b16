"""The benchmark's jobs still print the bytes their digests pin.

`perfbench/jobs.json` gives every benchmark job with the sha256 prefix of
its stdout, and a benchmark run refuses a change whose jobs print other
bytes.  This test reads that file (it never writes it) and reruns, in
process, a fast sample of it: the first job of every template, each
workload's self-check job, and the golden commands but the full
`accept --seed 7`, so a changed output fails here first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from isoplab.cli import main

JOBS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "jobs.json").read_text())


def _sample():
    for name, spec in JOBS["workloads"].items():
        for i, template in enumerate(spec["templates"]):
            yield pytest.param(template[0], id=f"{name}-template{i}")
        yield pytest.param(spec["selfcheck"], id=f"{name}-selfcheck")
    for job in JOBS["golden"]:
        if job["argv"][:2] != ["accept", "--seed"]:
            yield pytest.param(job, id="golden-" + "-".join(job["argv"][:2]))


@pytest.mark.parametrize("job", list(_sample()))
def test_job_reproduces_its_digest(job, capsys):
    code = main(list(job["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == job["digest"], job["argv"]
