"""Fast check that the benchmark harness still works end to end.

    python3 perfbench/selfcheck.py

For each workload it runs the workload's small self-check job from
jobs.json in the plain, traced and counting modes (counting twice, plus
tracemalloc for a growth job), checks every digest, checks that the two
counting runs agree exactly and that job rounds repeat for a seed, and
builds the end-to-end and per-layer metrics from those results, comparing
their names and units with BENCHMARK.json.  It skips the timed window and
the golden check, so it takes well under a minute.  Exits 1 on any problem.
"""

from __future__ import annotations

import itertools
import json
import sys

from run import (
    ROOT,
    Tally,
    job_rounds,
    layer_metrics,
    load_jobs,
    microbench,
    run_pass,
    timed_metrics,
)


def _compare(kind: str, got: dict, declared: list) -> list:
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in got.items()}
    return [f"{kind} metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(have.items()))}"] \
        if want != have else []


def check_workload(name: str, spec: dict, bench: dict) -> list:
    problems = []
    rounds = [list(itertools.islice(job_rounds(spec, name, seed), 3)) for seed in (1, 1, 2)]
    if rounds[0] != rounds[1]:
        problems.append(f"{name}: job rounds differ for the same seed")
    pool = [job for template in spec["templates"] for job in template]
    if any(job not in pool for r in rounds[2] for job in r):
        problems.append(f"{name}: a round holds a job outside the pool")
    job = spec["selfcheck"]
    tally = Tally()
    plain = run_pass([job], "plain", tally)
    traced = run_pass([job], "trace", tally)
    counted = [run_pass([job], "count", tally) for _ in range(2)]
    malloc = run_pass([job], "tracemalloc", tally) if job["argv"][0] == "growth" else []
    if tally.failed:
        return problems + [f"{name}: self-check job failed: {tally.failures}"]
    if counted[0][0]["counts"] != counted[1][0]["counts"]:
        problems.append(f"{name}: counts differ between two counting runs")
    e2e = timed_metrics([plain], [r["setup_s"] for r in plain])
    layer = layer_metrics(plain, traced, counted[0], malloc, microbench(name, 1, repeats=1))
    problems += _compare(f"{name}: end-to-end", e2e, bench["end_to_end"])
    problems += _compare(f"{name}: per-layer", layer, bench["per_layer"])
    print(f"{name}: {job['argv']} ok, main {plain[0]['main_s']:.3f} s, "
          f"{traced[0]['trace']['spans']} spans, {counted[0][0]['counts']['mul_calls']} mul calls",
          file=sys.stderr)
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = load_jobs()
    problems = []
    if set(jobs["workloads"]) != {w["name"] for w in bench["workloads"]}:
        problems.append("workloads in jobs.json and BENCHMARK.json differ")
    for name, spec in jobs["workloads"].items():
        problems += check_workload(name, spec, bench)
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
