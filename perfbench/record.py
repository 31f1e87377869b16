"""Build the benchmark's job pools and record each job's reference digest.

    python3 perfbench/record.py

Writes perfbench/jobs.json.  Each workload is a fixed sequence of job
templates; a round of the workload runs one variant of every template, in
order, so every round has the same mix of job sizes.  The seed given to
run.py only chooses which variant of each template a round runs.  Every
variant's stdout digest (sha256, first 16 hex digits) is recorded here so
that run.py can check each job it runs against it.

Record only at a commit whose outputs are trusted: the script refuses to
write anything unless the four golden digests from ROADMAP.md reproduce.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from run import BENCH_DIR, check_golden, spawn_job

VARIANTS = 8

GOLDEN = [
    (["accept", "--seed", "7", "--format", "jsonl"], "deda3598d8d9e34b"),
    (["accept", "--quick", "--seed", "7", "--format", "jsonl"], "a901649a67abd457"),
    (["profile", "--group", "dihedral:6", "--sizes", "1..5", "--format", "csv"], "60be03964f6302dc"),
    (["verify", "theorem", "--group", "heisenberg", "--set", "random:50:7",
      "--trials", "200", "--format", "jsonl"], "5d70a4b6291ae087"),
]


def _seed(rng) -> int:
    return rng.randrange(1, 10**6)


def _theorem(group, n):
    """verify theorem on a connected random set of n elements."""
    return lambda rng: ["verify", "theorem", "--group", group, "--set",
                        f"random:{n}:{_seed(rng)}", "--format", "jsonl"]


def _theorem_trials(trials):
    """verify theorem on `trials` connected 50-element sets of free:2."""
    return lambda rng: ["verify", "theorem", "--group", "free:2", "--set",
                        f"random:50:{_seed(rng)}", "--trials", str(trials), "--format", "jsonl"]


def _accept(rng):
    return ["accept", "--quick", "--seed", str(_seed(rng)), "--format", "jsonl"]


def _ball_check(check, group, n, radius, d=None):
    """verify halfmass/lemma31 on n elements drawn uniformly from a ball."""
    extra = [] if d is None else ["--d", str(d)]
    return lambda rng: ["verify", check, "--group", group, "--set",
                        f"random:{n}:{_seed(rng)}:ball={radius}", *extra, "--format", "jsonl"]


def _profile(groups, ks):
    """profile --sizes 1..k on a group of the given order."""
    return lambda rng: ["profile", "--group", rng.choice(groups),
                        "--sizes", f"1..{rng.choice(ks)}", "--format", "csv"]


def _fixed(argv):
    return lambda rng: list(argv)


# name -> (trace_rounds, selfcheck job, templates).  A template's variants
# share their size and differ in seed (or in group of the same order), so
# rounds drawn for different seeds cost about the same.  In workloads with
# several templates, sizes are chosen so that the five kinds of job have
# distinct typical durations, and the middle one appears three times per
# round: job_p50_s is then the median of that kind's jobs, with three
# samples per round.
WORKLOADS = {
    "connected-sample": (1, ["verify", "theorem", "--group", "heisenberg", "--set",
                             "random:60:3", "--format", "jsonl"], [
        _theorem("heisenberg", 1200),
        _theorem("free:2", 600),
        _theorem("zd:2", 1400),
        _theorem("heisenberg", 350),
        _theorem_trials(250),
        _theorem("free:2", 600),
        _theorem("free:2", 600),
    ]),
    "accept": (2, ["accept", "--quick", "--seed", "1", "--format", "jsonl"], [
        _accept,
    ]),
    "ball-scan": (1, ["growth", "--group", "free:2", "--max-radius", "5", "--format", "csv"], [
        _fixed(["growth", "--group", "free:3", "--max-radius", "8", "--format", "csv"]),
        _ball_check("halfmass", "free:2", 300, 7),
        _ball_check("halfmass", "zd:2", 500, 20),
        _ball_check("halfmass", "heisenberg", 900, 7),
        _ball_check("lemma31", "heisenberg", 650, 7, d=4),
        _ball_check("halfmass", "zd:2", 500, 20),
        _ball_check("halfmass", "zd:2", 500, 20),
    ]),
    "exhaustive-profile": (1, ["profile", "--group", "cyclic:12", "--sizes", "1..3",
                               "--format", "csv"], [
        _profile(["cyclic:16", "dihedral:8"], [6, 7]),
        _profile(["cyclic:18", "dihedral:9"], [7, 8]),
        _profile(["cyclic:20", "dihedral:10"], [8, 9]),
        _profile(["cyclic:21"], [9, 10]),
        _profile(["cyclic:22", "dihedral:11"], [9, 10]),
        _profile(["cyclic:20", "dihedral:10"], [8, 9]),
        _profile(["cyclic:20", "dihedral:10"], [8, 9]),
    ]),
}


def _reference(argv: list) -> dict:
    result = spawn_job(argv, "plain")
    if result.get("exit_code") != 0 or result.get("crashed") or result.get("stderr_traceback"):
        raise SystemExit(f"job failed while recording: {argv}: {result}")
    print(f"{result['main_s']:7.2f}s {result['digest']} {' '.join(argv)}", file=sys.stderr)
    return {"argv": argv, "digest": result["digest"]}


def main() -> int:
    golden = [{"argv": argv, "digest": digest} for argv, digest in GOLDEN]
    failures = check_golden(golden)
    if failures:
        print(f"golden digests do not reproduce: {failures}", file=sys.stderr)
        return 1
    workloads = {}
    for name, (trace_rounds, selfcheck, templates) in WORKLOADS.items():
        pools = []
        for t, make in enumerate(templates):
            rng = random.Random(f"{name}:{t}")
            argvs = []
            for _ in range(VARIANTS):
                argv = make(rng)
                if argv not in argvs:
                    argvs.append(argv)
            pools.append([_reference(argv) for argv in argvs])
        workloads[name] = {
            "trace_rounds": trace_rounds,
            "selfcheck": _reference(selfcheck),
            "templates": pools,
        }
    path = Path(BENCH_DIR) / "jobs.json"
    path.write_text(json.dumps({"golden": golden, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
