"""Acceptance gate: one test per criterion, full instance counts, zero
tolerance everywhere.  Each test prints its scorecard line."""

import hashlib

import pytest

from isoplab import ParseError
from isoplab.acceptance import _run_criteria, acceptance_instances, run_acceptance
from isoplab.cli import main

ACCEPT_SEED = 20260809


@pytest.fixture(scope="module")
def full_run():
    results, reports = _run_criteria(ACCEPT_SEED, quick=False)
    return {res.index: res for res in results}, reports


def _check(result):
    print(result.line())
    for finding in result.findings:
        print(f"  finding: {finding}")
    assert result.passed, result.detail


def test_criterion_1_smoothing_identity(full_run):
    results, _ = full_run
    assert "504 instances" in results[1].detail
    _check(results[1])


def test_criterion_2_half_mass(full_run):
    results, _ = full_run
    _check(results[2])


def test_criterion_3_transport_map(full_run):
    results, _ = full_run
    assert "204 transport instances" in results[3].detail
    _check(results[3])


def test_criterion_4_exhaustive_strict_bound(full_run):
    results, _ = full_run
    assert "1585" in results[4].detail
    _check(results[4])


def test_criterion_5_interval_sharpness(full_run):
    results, _ = full_run
    _check(results[5])


def test_criterion_6_classical_bound_and_boundary(full_run):
    results, _ = full_run
    _check(results[6])


def test_criterion_7_oracle_agreement(full_run):
    results, _ = full_run
    _check(results[7])


def test_criterion_8_determinism(capsys):
    argv = ["accept", "--quick", "--seed", "7", "--format", "jsonl"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    # the golden digest of this command, as recorded in ROADMAP.md
    assert hashlib.sha256(out1.encode()).hexdigest()[:16] == "a901649a67abd457"
    print("criterion 8 [determinism]: PASS (two accept runs with seed 7 are byte-identical)")


def test_library_runs_refuse_seeds_outside_the_64_bit_range():
    # the CLI's refusal, now in the stream itself: 2^64 would rerun seed 0
    with pytest.raises(ParseError, match="seed must lie in 0..2"):
        acceptance_instances(2**64, True)
    with pytest.raises(ParseError, match="seed must lie in 0..2"):
        run_acceptance(-1, quick=True)
