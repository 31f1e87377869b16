"""End-to-end and per-layer benchmark of isoplab CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A job is one `isoplab` CLI invocation.  Jobs run one at a time, each in a
fresh Python process (perfbench/job.py): a closed loop with one client, like
a user who waits for each command.  The seed picks each round's job
variants from perfbench/jobs.json, where every job has a reference digest of
its stdout; a job fails on a nonzero exit, a traceback, or a digest that
differs from its reference.  Every invocation also reproduces the four
golden digests of ROADMAP.md, outside the timed part.

--trace 0 runs whole rounds until S seconds have passed and reports the
end-to-end metrics.  --trace 1 runs each job of the workload's first
`trace_rounds` rounds three times (counting, plain, traced) and reports the
per-layer metrics; its job list is fixed by the seed, so the counts repeat
exactly.

The last line of stdout is the result object; the line before it holds the
context (Python version, CPU count, commit, job counts, sample counts).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
JOB_SCRIPT = BENCH_DIR / "job.py"
JOB_TIMEOUT_S = 150
SETUP_PROBES = 6

# Microbenchmark families: metric suffix -> group spec and default radius of
# the ball its element pairs are drawn from.
MICRO_FAMILIES = {
    "z": ("z", 60),
    "zd2": ("zd:2", 12),
    "free2": ("free:2", 5),
    "heisenberg": ("heisenberg", 5),
    "cyclic": ("cyclic:12", 6),
    "dihedral": ("dihedral:6", 6),
    "symmetric4": ("symmetric:4", 6),
}
# Where a workload uses a family, draw from the balls that workload works in.
MICRO_OVERRIDES = {
    "connected-sample": {"zd2": ("zd:2", 20), "free2": ("free:2", 7), "heisenberg": ("heisenberg", 8)},
    "accept": {"z": ("z", 30), "zd2": ("zd:2", 4), "free2": ("free:2", 4), "heisenberg": ("heisenberg", 4)},
    "ball-scan": {"zd2": ("zd:2", 20), "free2": ("free:2", 7), "heisenberg": ("heisenberg", 7)},
    "exhaustive-profile": {"cyclic": ("cyclic:22", 11), "dihedral": ("dihedral:11", 11)},
}
MICRO_PAIRS = 4096
MICRO_REPEATS = 9

LAYERS = ("groups", "metric", "isoperimetry", "search", "acceptance", "cli")


def load_jobs() -> dict:
    return json.loads((BENCH_DIR / "jobs.json").read_text())


def start_job(argv: list, mode: str, job_id: int = 0) -> tuple:
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(JOB_SCRIPT), str(spawn_ns), mode, str(job_id), json.dumps(argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    return proc, time.perf_counter()


def finish_job(started: tuple) -> dict:
    """Wait for a job process; a harness failure yields {"harness_error": ...}."""
    proc, t0 = started
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"harness_error": f"timed out after {JOB_TIMEOUT_S} s"}
    wall_s = time.perf_counter() - t0
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"harness_error": f"exit {proc.returncode}: {err.decode()[-2000:]}"}
    result["wall_s"] = wall_s
    return result


def spawn_job(argv: list, mode: str, job_id: int = 0) -> dict:
    return finish_job(start_job(argv, mode, job_id))


def job_ok(result: dict, digest: str) -> bool:
    return (
        "harness_error" not in result
        and result["exit_code"] == 0
        and not result["crashed"]
        and not result["stderr_traceback"]
        and result["digest"] == digest
    )


def check_golden(golden: list) -> list:
    """Run the golden jobs, the first (the full accept run, by far the
    longest) in parallel with the others, since nothing is timed here, and
    return the argv of each one that does not match."""
    first, rest = golden[0], golden[1:]
    started = start_job(first["argv"], "plain")
    results = [(job, spawn_job(job["argv"], "plain")) for job in rest]
    results.insert(0, (first, finish_job(started)))
    return [job["argv"] for job, result in results if not job_ok(result, job["digest"])]


def job_rounds(spec: dict, workload: str, seed: int):
    """Endless rounds; round r runs variant perm_t[r] of every template t."""
    rng = random.Random(f"{workload}:{seed}")
    pools = spec["templates"]
    perms = [rng.sample(range(len(pool)), len(pool)) for pool in pools]
    r = 0
    while True:
        yield [pool[perm[r % len(perm)]] for pool, perm in zip(pools, perms)]
        r += 1


class Tally:
    """Jobs attempted and failed, with the argv of the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def add(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


def run_job(job: dict, mode: str, tally: Tally, job_id: int = 0):
    """Run one job and tally it; None if the harness got no result."""
    result = spawn_job(job["argv"], mode, job_id)
    tally.add(job_ok(result, job["digest"]), job["argv"])
    return None if "harness_error" in result else result


def run_pass(jobs: list, mode: str, tally: Tally) -> list:
    results = [run_job(job, mode, tally, i) for i, job in enumerate(jobs)]
    return [r for r in results if r is not None]


def timed_metrics(by_template: list, setup_samples: list) -> dict:
    """by_template[t] holds the results of template t's jobs.  A round runs
    one job of every template, so jobs_per_s is the round's job count over
    the sum of each template's median spawn-to-exit time."""
    results = [r for template in by_template for r in template]
    round_s = sum(statistics.median(r["wall_s"] for r in template) for template in by_template)
    return {
        "jobs_per_s": {"value": len(by_template) / round_s, "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(r["main_s"] for r in results), "unit": "s"},
        "peak_rss_mb": {"value": max(r["maxrss_mb"] for r in results), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }


def timed_run(spec: dict, workload: str, seed: int, seconds: int, tally: Tally, context: dict) -> dict:
    spawn_job([], "setup")  # let the interpreter write bytecode caches first
    setup_samples = [spawn_job([], "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    by_template = [[] for _ in spec["templates"]]
    rounds = 0
    start = time.monotonic()
    for round_jobs in job_rounds(spec, workload, seed):
        if rounds and time.monotonic() - start >= seconds:
            break
        for t, job in enumerate(round_jobs):
            result = run_job(job, "plain", tally)
            if result is not None:
                by_template[t].append(result)
        rounds += 1
    if not all(by_template):
        raise SystemExit(f"perfbench: some template produced no result: {tally.failures}")
    jobs = sum(len(template) for template in by_template)
    setup_samples += [r["setup_s"] for template in by_template for r in template]
    context.update(
        rounds=rounds,
        jobs=jobs,
        window_s=time.monotonic() - start,
        template_p50_main_s=[statistics.median(r["main_s"] for r in t) for t in by_template],
        samples={
            "jobs_per_s": f"{len(by_template)} templates per round / sum of per-template p50 "
                          f"spawn-to-exit time over {rounds} rounds",
            "job_p50_s": f"p50 of {jobs} job main() times",
            "peak_rss_mb": f"max ru_maxrss of {jobs} job processes",
            "setup_s": f"p50 of {len(setup_samples)} spawns ({SETUP_PROBES} probes + one per job)",
        },
    )
    return timed_metrics(by_template, setup_samples)


def microbench(workload: str, seed: int, repeats: int = MICRO_REPEATS) -> dict:
    """ns per `mul` and per `sort_key` call on element pairs drawn from a ball."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from isoplab import ball, parse_group

    families = {**MICRO_FAMILIES, **MICRO_OVERRIDES.get(workload, {})}
    rng = random.Random(f"micro:{workload}:{seed}")
    out = {}
    for fam, (spec, radius) in families.items():
        group = parse_group(spec)
        pool = list(ball(group, radius).elements())
        xs = [rng.choice(pool) for _ in range(MICRO_PAIRS)]
        ys = [rng.choice(pool) for _ in range(MICRO_PAIRS)]
        mul, sort_key = group.mul, group.sort_key
        timings = {"mul": [], "sort_key": []}
        for _ in range(repeats):
            t = time.perf_counter_ns()
            collections.deque(map(mul, xs, ys), maxlen=0)
            timings["mul"].append((time.perf_counter_ns() - t) / MICRO_PAIRS)
            t = time.perf_counter_ns()
            collections.deque(map(sort_key, xs), maxlen=0)
            timings["sort_key"].append((time.perf_counter_ns() - t) / MICRO_PAIRS)
        out[fam] = {k: statistics.median(v) for k, v in timings.items()}
        out[fam]["ball"] = f"{spec} radius {radius} ({len(pool)} elements)"
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced: list, traced: list, counted: list, malloc: list, micro: dict) -> dict:
    """Per-layer metrics.  Times are means per traced job; counts are totals
    over the counting pass; rates divide a count by the traced time."""
    n = len(traced)
    main_total = sum(r["main_s"] for r in traced)

    def total(key: str, name: str) -> float:
        return sum(r["trace"][key].get(name, 0.0) for r in traced)

    counts = collections.Counter()
    for r in counted:
        counts.update(r["counts"])
    layer_self = {layer: total("layer_self_s", layer) for layer in LAYERS if layer != "groups"}
    errors = collections.Counter()
    for r in traced:
        errors.update(r["trace"]["errors"])
    errors["groups"] = counts["group_errors"]
    half_mass = total("fn_total_s", "half_mass_witness")
    lemma31 = total("fn_total_s", "lemma31_check")
    connected = total("fn_self_s", "_sample_connected")
    profile = total("fn_self_s", "exhaustive_profile")
    translations = sum(r["translations"] for r in traced)

    m = {}
    for fam, values in micro.items():
        m[f"groups.mul_ns.{fam}"] = (values["mul"], "ns")
        m[f"groups.sort_key_ns.{fam}"] = (values["sort_key"], "ns")
    m["groups.mul_calls"] = (counts["mul_calls"], "count")
    m["groups.sort_key_calls"] = (counts["sort_key_calls"], "count")
    m["metric.calls"] = (counts["metric_calls"], "count")
    m["metric.builds"] = (counts["metric_builds"], "count")
    m["metric.self_s"] = (layer_self["metric"] / n, "s")
    m["metric.share"] = (_ratio(layer_self["metric"], main_total), "ratio")
    m["metric.redundant_ratio"] = (_ratio(counts["metric_redundant"], counts["metric_calls"]), "ratio")
    m["metric.ball_elements"] = (counts["ball_elements"], "count")
    m["metric.elements_per_s"] = (_ratio(counts["ball_elements"], layer_self["metric"]), "1/s")
    m["metric.bytes_per_element"] = (
        _ratio(sum(r["tracemalloc_peak"] for r in malloc), sum(r["elements"] for r in malloc)), "B")
    m["isoperimetry.self_s"] = (layer_self["isoperimetry"] / n, "s")
    m["isoperimetry.share"] = (_ratio(layer_self["isoperimetry"], main_total), "ratio")
    m["isoperimetry.outer_boundary_s"] = (total("fn_total_s", "outer_boundary") / n, "s")
    m["isoperimetry.half_mass_s"] = (half_mass / n, "s")
    m["isoperimetry.lemma31_s"] = (lemma31 / n, "s")
    m["isoperimetry.transport_s"] = (total("fn_total_s", "transport_map") / n, "s")
    m["isoperimetry.verify_theorem_s"] = (total("fn_total_s", "verify_theorem") / n, "s")
    m["isoperimetry.translations"] = (translations, "count")
    m["isoperimetry.translations_per_s"] = (_ratio(translations, half_mass + lemma31), "1/s")
    m["search.sample_connected_s"] = (connected / n, "s")
    m["search.sampled_elements"] = (counts["sampled_elements"], "count")
    m["search.sampled_elements_per_s"] = (_ratio(counts["sampled_elements"], connected), "1/s")
    m["search.sample_uniform_s"] = (total("fn_self_s", "_sample_uniform_in_ball") / n, "s")
    m["search.profile_s"] = (profile / n, "s")
    m["search.subsets_visited"] = (counts["subsets_visited"], "count")
    m["search.subsets_per_s"] = (_ratio(counts["profile_subsets_visited"], profile), "1/s")
    m["search.useful_subset_ratio"] = (
        _ratio(counts["profile_useful_subsets"], counts["profile_subsets_visited"]), "ratio")
    for c in range(1, 8):
        m[f"acceptance.c{c}_s"] = (sum(r["trace"]["criteria_s"][f"c{c}"] for r in traced) / n, "s")
    m["acceptance.determinism_s"] = (sum(r["trace"]["determinism_s"] for r in traced) / n, "s")
    m["cli.self_s"] = (layer_self["cli"] / n, "s")
    m["cli.render_s"] = (sum(r["trace"]["render_s"] for r in traced) / n, "s")
    m["cli.bytes_out"] = (sum(r["bytes_out"] for r in traced) / n, "B")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors[layer], "count")
    m["trace.overhead_ratio"] = (
        _ratio(main_total, sum(r["main_s"] for r in untraced)), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def traced_run(spec: dict, workload: str, seed: int, tally: Tally, context: dict) -> dict:
    rounds = job_rounds(spec, workload, seed)
    jobs = [job for _ in range(spec["trace_rounds"]) for job in next(rounds)]
    spawn_job([], "setup")
    # Each job runs counted, plain and traced back to back, so that the plain
    # and traced runs of a job see the same machine state; the untimed
    # counting run goes first because a job's first run is often slower.
    passes = {"count": [], "plain": [], "trace": []}
    for i, job in enumerate(jobs):
        for mode, results in passes.items():
            results.append(run_job(job, mode, tally, i))
    if any(r is None for results in passes.values() for r in results):
        raise SystemExit(f"perfbench: a traced job produced no result: {tally.failures}")
    counted, untraced, traced = passes.values()
    malloc = run_pass([j for j in jobs if j["argv"][0] == "growth"], "tracemalloc", tally)
    micro = microbench(workload, seed)
    context.update(
        jobs=len(jobs),
        samples={
            "times": f"mean per job over {len(traced)} traced jobs",
            "counts": f"totals over {len(counted)} counted jobs",
            "groups": f"p50 of {MICRO_REPEATS} repeats over {MICRO_PAIRS} element pairs",
        },
        micro_balls={fam: v["ball"] for fam, v in micro.items()},
        spans=sum(r["trace"]["spans"] for r in traced),
    )
    return layer_metrics(untraced, traced, counted, malloc, micro)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isoplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoplab" / "cli.py").is_file():
        print(f"perfbench: no isoplab sources under {SRC}", file=sys.stderr)
        return 2
    jobs = load_jobs()
    if args.workload not in jobs["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = jobs["workloads"][args.workload]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    tally = Tally()
    if args.trace:
        metrics = traced_run(spec, args.workload, args.seed, tally, context)
    else:
        metrics = timed_run(spec, args.workload, args.seed, args.seconds, tally, context)
    context["fail_ratio"] = tally.failed / tally.attempted
    golden_failures = check_golden(jobs["golden"])
    for job in jobs["golden"]:
        tally.add(job["argv"] not in golden_failures, job["argv"])
    context["golden_failures"] = golden_failures
    context["failures"] = tally.failures
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
