"""Criterion 8 (determinism) compares sha256 digests of two report streams.

Each pass of criteria 1-7 feeds every report line, and then every criterion
result line, to a running sha256 as it is made, and only the reported pass
keeps its report dicts.  These tests check that the digest is that of the
stream as it was built before, as one `bytes` object
(`oracle_helpers.serialize_run`); that a defect in the second pass alone
fails criterion 8 and no other, also when it changes a type and no value;
and that an `accept` run stays within a memory budget, since no pass holds
its encoded stream and the CLI writes each line as it renders it.
"""

import hashlib
import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from isoplab import acceptance
from isoplab.acceptance import _ReportStream, _run_criteria, run_acceptance
from oracle_helpers import serialize_run

ROOT = Path(__file__).resolve().parent.parent

# verify_theorem calls in one quick pass: criterion 4 sweeps 1585 subsets in
# each of two groups, criterion 5 checks 50 intervals
CALLS_PER_PASS = 2 * 1585 + 50


@pytest.mark.parametrize("seed", [7, 138902])
def test_stream_digest_is_the_sha256_of_the_built_stream(seed):
    reported = _ReportStream(keep=True)
    results, report_dicts = _run_criteria(seed, True, reported)
    expected = hashlib.sha256(serialize_run(results, report_dicts)).hexdigest()
    assert reported.digest == expected
    reference = _ReportStream(keep=False)
    assert _run_criteria(seed, True, reference)[1] is None
    assert reference.digest == expected


def patch_second_pass(monkeypatch, change):
    """Apply change to every verify_theorem report from the second pass on;
    return the call counter."""
    calls = count()
    verify_theorem = acceptance.verify_theorem

    def patched(*args, **kwargs):
        report = verify_theorem(*args, **kwargs)
        if next(calls) >= CALLS_PER_PASS:
            change(report)
        return report

    monkeypatch.setattr(acceptance, "verify_theorem", patched)
    return calls


def failed_criteria(outcome):
    return {res.index for res in outcome.results if not res.passed}


def test_a_second_pass_value_change_fails_criterion_8_alone(monkeypatch):
    def suffix(report):
        report.set_descriptor += "'"

    calls = patch_second_pass(monkeypatch, suffix)
    outcome = run_acceptance(7, True)
    assert next(calls) == 2 * CALLS_PER_PASS
    assert failed_criteria(outcome) == {8}
    assert outcome.results[7].detail == (
        "second run with the same seed produced a different report stream"
    )


def test_a_second_pass_type_change_fails_criterion_8_alone(monkeypatch):
    # the int 1 becomes True, which == on dicts cannot tell apart: the
    # line reads "set_size":true where the first pass wrote "set_size":1
    def to_bool(report):
        if report.extra["set_size"] == 1:
            report.extra["set_size"] = True

    clean = _run_criteria(7, True)[1]
    patch_second_pass(monkeypatch, to_bool)
    outcome = run_acceptance(7, True)
    assert failed_criteria(outcome) == {8}
    assert outcome.report_dicts == clean
    assert any(d.get("extra", {}).get("set_size") is True for d in outcome.report_dicts)


MEMORY_SCRIPT = """
import contextlib
import io
import json
import sys
import tracemalloc
sys.path.insert(0, {src!r})
from isoplab.cli import main
out = io.StringIO()
tracemalloc.start()
with contextlib.redirect_stdout(out):
    code = main(["accept", "--quick", "--seed", "7", "--format", "jsonl"])
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({{"code": code, "peak": peak, "lines": out.getvalue().count("\\n")}}))
"""


def test_quick_accept_peak_traced_memory():
    # 6.6 MB when each pass kept its encoded stream and the CLI joined its
    # output before writing it; about 4.3 MB since
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", MEMORY_SCRIPT.format(src=str(ROOT / "src"))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["lines"] > 3000
    assert result["peak"] < 5.5e6, result["peak"]
