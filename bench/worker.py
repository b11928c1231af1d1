"""Runs one pass of benchmark ops in a fresh interpreter.

    python3 bench/worker.py < request.json

The request is {"ops": [argv, ...], "trace": bool}.  Each argv is one
call of padicount.cli.main with stdout captured, in order, one at a
time.  A pass runs in its own interpreter, so nothing padicount keeps
between calls survives from one pass to the next, as for a CLI user
who starts a fresh interpreter for every call.  An untimed first call,
WARMUP_ARGV, pays the one-off costs of a fresh interpreter's first call;
the benchmark times that call in its set-up metric.

The worker times calibration.reference_load() before the first op, after
the last, and between ops whenever CALIBRATE_EVERY_S of CPU time has
gone into ops since the last time; each op is given the mean of the two
reference times around it.

The reply, on stdout, is {"results": [[code, stdout, wall_s, cpu_s,
reference_s], ...], "peak_rss_kb": int, "trace": tracer snapshot or
null}, where code is 0 or a description of the failure.  padicount must
be importable (src on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import calibration

CALIBRATE_EVERY_S = 0.05
# Lies outside every workload's draws: no workload uses p = 11.
WARMUP_ARGV = ("count", "krasner", "--qp", "11", "--e", "1", "--f", "1")


def execute(cli, argv):
    """One CLI invocation: (0 or a description of the failure, stdout,
    wall seconds, CPU seconds of this process)."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program is a failed op
        code = f"{type(exc).__name__}: {exc}"
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if code != 0:
        code = f"{code} {err.getvalue().strip()}".strip()
    return code, out.getvalue(), elapsed, cpu


def run_calibrated(cli, ops) -> list:
    """Execute each argv in order; each result ends with the mean of the
    reference times taken before and after its stretch of ops."""
    results, stretch, since = [], [], 0.0
    before = calibration.reference_s()
    for argv in ops:
        if since >= CALIBRATE_EVERY_S:
            after = calibration.reference_s()
            for result in stretch:
                result.append((before + after) / 2)
            before, stretch, since = after, [], 0.0
        result = list(execute(cli, argv))
        results.append(result)
        stretch.append(result)
        since += result[3]
    after = calibration.reference_s()
    for result in stretch:
        result.append((before + after) / 2)
    return results


def main() -> int:
    request = json.load(sys.stdin)
    import padicount
    from padicount import cli

    execute(cli, WARMUP_ARGV)
    tr = None
    if request["trace"]:
        import tracer

        tr = tracer.Tracer()
        tr.install(padicount)
    try:
        results = run_calibrated(cli, request["ops"])
    finally:
        if tr is not None:
            tr.uninstall()
    reply = {
        "results": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tr.snapshot() if tr is not None else None,
    }
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
