"""Run one isoplab CLI job in a fresh process and print its result as JSON.

    python3 perfbench/job.py SPAWN_NS MODE JOB_ID ARGV_JSON

SPAWN_NS is `time.monotonic_ns()` read by the parent just before it spawned
this process, so `setup_s` covers interpreter start plus `import
isoplab.cli`.  MODE is one of

    setup        stop once `main` is ready to call
    plain        time `isoplab.cli.main(argv)` with stdout captured
    trace        the same with layer spans recorded (see layers.Tracer)
    count        the same with exact work counters (see layers.Counter)
    tracemalloc  the same with tracemalloc's peak recorded

The library is imported from the `src` directory next to this one, before
anything else of the harness, and is never given a `--out` path.
"""

import os
import sys
import time

SPAWN_NS = int(sys.argv[1])
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import isoplab.cli  # noqa: E402

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def translations(text: str) -> int:
    """Sum of ball_size * set_size over half-mass and lemma31 reports."""
    total = 0
    for line in text.splitlines():
        if line.startswith("{") and ('"half_mass"' in line or '"lemma31"' in line):
            report = json.loads(line)
            if report.get("kind") in ("half_mass", "lemma31"):
                total += report["extra"]["ball_size"] * report["extra"]["set_size"]
    return total


def run(mode: str, job_id: int, argv: list) -> dict:
    result = {"setup_s": (READY_NS - SPAWN_NS) / 1e9}
    if mode == "setup":
        return result
    recorder = None
    if mode == "trace":
        from layers import Tracer

        recorder = Tracer(job_id)
        recorder.install()
    elif mode == "count":
        from layers import Counter

        recorder = Counter()
        recorder.install()
    elif mode == "tracemalloc":
        import tracemalloc

        tracemalloc.start()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    out, err = io.StringIO(), io.StringIO()
    crashed = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = isoplab.cli.main(argv)
    except Exception:
        code = None
        crashed = traceback.format_exc()
    main_s = time.perf_counter() - start
    text = out.getvalue()
    data = text.encode("utf-8")
    result.update(
        exit_code=code,
        crashed=crashed,
        stderr_traceback="Traceback" in err.getvalue(),
        main_s=main_s,
        digest=hashlib.sha256(data).hexdigest()[:16],
        bytes_out=len(data),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if mode == "trace":
        result["trace"] = recorder.summary()
        result["translations"] = translations(text)
    elif mode == "count":
        result["counts"] = recorder.counts
    elif mode == "tracemalloc":
        result["tracemalloc_peak"] = tracemalloc.get_traced_memory()[1]
        # growth --format csv ends with the row "r,gamma(r)".
        result["elements"] = int(text.splitlines()[-1].split(",")[1])
    return result


if __name__ == "__main__":
    outcome = run(sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4]))
    sys.stdout.write(json.dumps(outcome) + "\n")
