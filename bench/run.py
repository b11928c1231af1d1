"""Benchmark for padicount: seeded workloads driven through the CLI.

    python3 bench/run.py --workload queries --seed 1 --seconds 17 --trace 0

One client runs a closed loop: the next op starts when the previous one
returns, and no threads are used.  An op is one call of
padicount.cli.main(argv) with stdout captured.  The ops of a pass are
drawn afresh from (seed, pass) and no invocation repeats within a pass.
Every run of a pass is a fresh worker interpreter (bench/worker.py), so
no state padicount keeps between calls carries over.  Every answer is
checked.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics named in BENCHMARK.json; each op runs three
times and its time is the best of the three, scaled to the reference
host's speed (see end_to_end and calibration.py).  With --trace 1 a
tracer wraps the package's public functions and the JSON holds the
per-layer metrics instead, plus the tracer's own overhead against
untraced runs of the same ops.

    python3 bench/run.py --workload all --seed 1

runs every workload untraced and traced, then the full-size worst-case
probes, and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibration
import stats
import tracer
import workloads
from worker import WARMUP_ARGV

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
MAX_BITS_ENV = "PADICOUNT_MAX_BITS"

# The fewest set-up spawns a run takes; see end_to_end.
SETUP_SPAWNS = 11
# Each op of an untraced run is timed this many times; see end_to_end.
REPEATS = 3

SUITES = (
    "lemma", "pi-oracle", "psi-oracle", "delta-telescoping", "dual-oracle",
    "cyclic-decomposition", "remark-equivalence", "theorem-consistency", "sandwich", "golden",
)
# Functions each workload must call; a zero count means the tracer missed
# a binding or the workload stopped exercising the layer.
EXERCISED = {
    "queries": ("cli.main", "profiles.qp_profile", "profiles.load_profile", "profiles.validate"),
    "table": (
        "arith.is_prime", "arith.divides_p_power_minus_one", "arith.mult_order",
        "arith.divisors", "arith.prime_factors", "counting.magnitude_bits",
        "counting.guarded_power", "counting.sigma_krasner", "counting.delta_count",
        "theorems.iso_count_ef", "theorems.iso_count_total",
    ),
    "hard": (
        "arith.is_prime", "arith.divides_p_power_minus_one", "arith.mult_order",
        "arith.divisors", "arith.prime_factors", "arith.gcd_p_power_minus_one",
        "theorems.tame_iso_count_terms",
    ),
    "selfcheck": (
        "oracles.dual_cyclic_subgroup_count", "oracles.subgroups", "oracles.lemma_check",
        "oracles.AbelianGroup.order_histogram",
    ),
}

# The ROADMAP's worst cases at full size; recorded, never gated.
PROBES = (
    ("krasner", "count krasner --qp 2305843009213693951 --e 1 --f 1", 1),
    ("cyclic-ef", "count cyclic-ef --qp 2 --e 1000000007 --f 1", 0),
    ("iso-ef", "count iso-ef --qp 3 --e 1000000007 --f 1", 1),
    ("tame", "count tame --qp 3 --e 2 --f 10000000", 2),
)
PROBE_TIMEOUT_S = 10.0
PROBE_MEMORY_BYTES = 512 << 20
# One pass takes a few seconds; a hung worker is killed after this.
WORKER_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != MAX_BITS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(args, max_bits) -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": socket.gethostname(),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        MAX_BITS_ENV: "unset" if max_bits is None else f"was {max_bits!r}, unset for the run",
    }


def setup_spawn() -> float:
    """Wall time of one `python -m padicount.cli` running a trivial count:
    the interpreter start, the imports, the parser and the one-off costs
    of a first call, which a CLI user pays on every call.  It is scaled
    to the reference host's quiet phase by reference times taken just
    before and after; see calibration.py."""
    before = calibration.reference_s()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "padicount.cli", *WARMUP_ARGV],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - start
    return elapsed * calibration.scale((before + calibration.reference_s()) / 2)


class Ledger:
    """Checks the answers of each group as its pass returns.

    An op fails when it exits non-zero, when its output fails its checks,
    or when it prints other bytes than the same invocation printed in an
    earlier pass; when the answers of a group disagree, all its ops fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[tuple[str, ...], bytes] = {}

    def record(self, group, results) -> None:
        bad, values = set(), []
        for k, (op, (code, out, *_)) in enumerate(zip(group.ops, results)):
            digest = hashlib.blake2b(out.encode(), digest_size=16).digest()
            try:
                if code != 0:
                    raise workloads.Mismatch(f"{' '.join(op.argv)}: exit {code}")
                if self._digests.setdefault(op.argv, digest) != digest:
                    raise workloads.Mismatch(f"{' '.join(op.argv)}: output differs from an earlier pass")
                values.append(workloads.check_output(op, out))
            except workloads.Mismatch as exc:
                bad.add(k)
                self.problems.append(str(exc))
        if not bad:
            try:
                workloads.check_group(group, values)
            except workloads.Mismatch as exc:
                bad = set(range(len(group.ops)))
                self.problems.append(str(exc))
        self.attempted += len(group.ops)
        self.failed += len(bad)

    def record_pass(self, groups, results) -> None:
        """Record a pass's results, given in the order of the groups' ops."""
        results = iter(results)
        for group in groups:
            self.record(group, [next(results) for _ in group.ops])


def run_pass(argvs, trace=False):
    """Run argv lists in order in a fresh worker interpreter; returns each
    one's (code, stdout, wall seconds, CPU seconds, reference seconds), the
    worker's peak RSS in KiB and, when traced, its tracer snapshot."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=json.dumps({"ops": argvs, "trace": trace}),
        capture_output=True, text=True, env=child_env(), timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    reply = json.loads(done.stdout)
    return reply["results"], reply["peak_rss_kb"], reply["trace"]


class Pass:
    """One pass's ops, run REPEATS times over a run, each time in a fresh
    worker and starting at another point of the list; keeps each op's
    least CPU time and least wall time over the runs so far, each scaled
    to the reference host's quiet phase by the reference time the worker
    took next to the op (see calibration.py)."""

    def __init__(self, groups):
        self.groups = groups
        self.argvs = [op.argv for group in groups for op in group.ops]
        self.best_cpu = [math.inf] * len(self.argvs)
        self.best_wall = [math.inf] * len(self.argvs)
        self.peak_kb = 0
        self.runs = 0
        self.references: list[float] = []

    def run(self, ledger) -> float:
        """Run the ops once more; returns the median reference time."""
        n = len(self.argvs)
        order = [(i + self.runs * n // REPEATS) % n for i in range(n)]
        results, rss_kb, _ = run_pass([self.argvs[i] for i in order])
        in_place = [None] * n
        for i, result in zip(order, results):
            in_place[i] = result
            _, _, wall, cpu, reference = result
            factor = calibration.scale(reference)
            self.best_wall[i] = min(self.best_wall[i], wall * factor)
            self.best_cpu[i] = min(self.best_cpu[i], cpu * factor)
        ledger.record_pass(self.groups, in_place)
        self.peak_kb = max(self.peak_kb, rss_kb)
        self.runs += 1
        reference = statistics.median(result[4] for result in results)
        self.references.append(reference)
        return reference


def until(budget, step):
    """Run step(0), step(1), ... while the next step, if it costs as much
    as the costliest so far, would end less than half a step past the
    budget, so that the steps end near the budget on average; the first
    step always runs.  step(i) runs the i-th step and returns its cost in
    seconds.  Returns the number of steps run."""
    index, spent, costliest = 0, 0.0, 0.0
    while index == 0 or spent + costliest / 2 <= budget:
        cost = step(index)
        spent += cost
        costliest = max(costliest, cost)
        index += 1
    return index


def end_to_end(name, seed, workdir, seconds):
    """A run has REPEATS phases of about equal length.  The first draws
    fresh passes until its share of `seconds` is used, counted in seconds
    of the reference host's quiet phase like the op times, so that a run
    does the same work whatever the host's state; on a busy host it takes
    longer.  Each later phase runs the same passes again, in the same
    order, so an op's runs are a phase apart.  Each run of a pass is a
    fresh interpreter, so no run can reuse what an earlier one computed,
    and every run's answers are checked.

    The host this benchmark was written on slows down by 30-80% for
    seconds to minutes at a time (see calibration.py).  Besides the
    scaled budget, two measures keep that out of the figures.  Every time
    is scaled to the reference host's quiet phase by a reference load
    timed next to it, which removes most of a slowdown that lasts longer
    than an op.  And an op's latency is its least scaled CPU time over
    its REPEATS runs, so one run in a short burst of contention, which
    the reference misses, does not count.

    Latencies are CPU times: padicount is single-threaded and does no
    blocking I/O, and CPU time leaves out the stalls of being preempted.
    ops_per_s is on wall time, so that work moved to other threads or
    processes still shows.  Set-up is sampled once before each run of a
    pass, across the whole run, at least SETUP_SPAWNS times, and reported
    as the median; one uncounted spawn first fills the bytecode cache."""
    ledger, passes, setup = Ledger(), [], []
    setup_spawn()

    def run(one_pass):
        setup.append(setup_spawn())
        return one_pass.run(ledger)

    def first(index):
        passes.append(Pass(workloads.build(name, seed, workdir, index)))
        start = time.perf_counter()
        reference = run(passes[-1])
        return (time.perf_counter() - start) * calibration.scale(reference)

    until(seconds / REPEATS, first)
    for _ in range(REPEATS - 1):
        for one_pass in passes:
            run(one_pass)
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_spawn())

    latencies = [t for one_pass in passes for t in one_pass.best_cpu]
    walls = [t for one_pass in passes for t in one_pass.best_wall]
    found = stats.tail(latencies)
    if found:
        q, tail_value, beyond = found
        label = f"p{q}"
    else:
        tail_value, beyond, label = max(latencies), 0, "max: too few samples for a percentile"
    busy = sum(walls)
    reference_ms = statistics.median(r for one_pass in passes for r in one_pass.references) * 1e3
    metrics = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ops_per_s": len(walls) / busy,
        "ops_failed_ratio": ledger.failed / ledger.attempted,
        "peak_rss_mb": max(one_pass.peak_kb for one_pass in passes) / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "op_tail_ms": f"{label}, {beyond} samples beyond, n={len(latencies)}",
        "op_p50_ms": (
            f"n={len(latencies)} ops in {len(passes)} passes, each op the best CPU time of {REPEATS} runs; "
            f"median reference time {reference_ms:.3f} ms, quiet {calibration.REFERENCE_QUIET_S * 1e3:.3f} ms"
        ),
        "ops_per_s": f"{len(walls)} ops in {busy:.2f} s, each op its best wall time of {REPEATS} runs; closed loop, one client",
        "ops_failed_ratio": f"{ledger.failed} of {ledger.attempted}",
        "peak_rss_mb": f"largest of {len(passes) * REPEATS} worker interpreters",
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
    }
    return metrics, notes, ledger


def traced(name, seed, workdir, seconds):
    """Each pass runs twice, each time in a fresh worker: untraced for the
    reference time, then traced for the per-layer figures."""
    tr, ledger = tracer.Tracer(), Ledger()
    busy = {False: 0.0, True: 0.0}

    def one_pass(index):
        start = time.perf_counter()
        groups = workloads.build(name, seed, workdir, index)
        argvs = [op.argv for group in groups for op in group.ops]
        for trace in (False, True):
            results, _, snapshot = run_pass(argvs, trace)
            ledger.record_pass(groups, results)
            busy[trace] += sum(result[2] for result in results)
        tr.absorb(snapshot)
        return time.perf_counter() - start

    passes = until(seconds, one_pass)
    metrics = layer_metrics(tr, passes)
    metrics["trace.overhead_ratio"] = busy[True] / busy[False]
    notes = {
        "trace.overhead_ratio": f"traced {busy[True] / passes:.3f} s per pass, untraced {busy[False] / passes:.3f} s",
    }
    return metrics, notes, ledger, coverage_problems(name, tr), passes


def layer_metrics(tr, passes) -> dict:
    """Per-pass calls, self time and errors, by function and by layer."""
    metrics = {}
    layer_self = Counter()
    for label, st in tr.stats.items():
        metrics[f"{label}.calls"] = st.calls // passes if st.calls % passes == 0 else st.calls / passes
        metrics[f"{label}.self_s"] = st.self_ns / 1e9 / passes
        layer_self[label.split(".")[0]] += st.self_ns
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9 / passes
        metrics[f"{layer}.errors"] = tr.module_errors[layer] / passes
    for suite in SUITES:
        metrics[f"selfcheck.{suite}.s"] = tr.suite_ns.get(suite, 0) / 1e9 / passes
    power = tr.stats["counting.guarded_power"]
    metrics["counting.guarded_power.max_bits"] = power.max_bits
    divides = tr.stats["arith.divides_p_power_minus_one"]
    metrics["arith.divides_p_power_minus_one.true_ratio"] = (
        divides.true_results / divides.calls if divides.calls else 0.0
    )
    return metrics


def coverage_problems(name, tr) -> list[str]:
    problems = [f"{label} was never called" for label in EXERCISED[name] if tr.stats[label].calls == 0]
    if name == "selfcheck":
        problems += [f"suite {s} was never timed" for s in SUITES if tr.suite_ns.get(s, 0) == 0]
    else:
        problems += [
            f"{label} ran {st.calls} times outside selfcheck"
            for label, st in tr.stats.items()
            if label.startswith("oracles.") and st.calls
        ]
    return problems


def run_probes() -> list[dict]:
    """Each full-size probe in a fresh interpreter, killed at the timeout
    and capped in memory so that a runaway probe stays small."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))

    records = []
    for name, argv, want in PROBES:
        command = [sys.executable, "-m", "padicount.cli", *argv.split()]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, env=child_env(), capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, preexec_fn=limit_memory,
            )
        except subprocess.TimeoutExpired:
            status, detail = "timed_out", None
        else:
            ok = done.returncode == 0 and done.stdout.strip() == str(want)
            status = "completed" if ok else "failed"
            detail = done.stdout.strip() if ok else (done.stderr.strip().splitlines() or [""])[-1]
        records.append({
            "probe": name,
            "argv": argv,
            "status": status,
            "elapsed_s": round(time.perf_counter() - start, 3),
            "timeout_s": PROBE_TIMEOUT_S,
            "detail": detail,
        })
    return records


def select(metrics, specs, notes) -> dict:
    """The metrics the spec names, each with its unit; print them too."""
    chosen = {}
    for spec in specs:
        name = spec["name"]
        if name not in metrics:
            raise RuntimeError(f"metric {name} is listed in BENCHMARK.json but not measured")
        chosen[name] = {"value": metrics[name], "unit": spec["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {metrics[name]:>14.6g} {spec['unit']}{note}")
    return chosen


def run_workload(name, seed, seconds, trace, spec, workdir):
    groups = workloads.build(name, seed, workdir)
    mode = "traced" if trace else "untraced"
    print(f"workload {name} ({mode}): {sum(len(g.ops) for g in groups)} invocations per pass")
    if trace:
        metrics, notes, ledger, problems, passes = traced(name, seed, workdir, seconds)
        print(f"  {passes} passes, each untraced and traced; per-layer values are per pass")
        chosen = select(metrics, spec["per_layer"], notes)
    else:
        metrics, notes, ledger = end_to_end(name, seed, workdir, seconds)
        problems = []
        chosen = select(metrics, spec["end_to_end"], notes)
        print(f"  {'ops_failed_ratio':<48} {metrics['ops_failed_ratio']:>14.6g} ratio  ({notes['ops_failed_ratio']})")
    for problem in ledger.problems[:5]:
        print(f"bench: failed op: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"bench: trace coverage: {problem}", file=sys.stderr)
    return chosen, ledger, not ledger.failed and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",),
        help="one workload, or all of them untraced and traced plus the full-size probes",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padicount" / "cli.py").is_file() or not SPEC.is_file():
        print(f"bench: needs src/padicount and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    print("env " + json.dumps(environment(args, os.environ.get(MAX_BITS_ENV)), sort_keys=True))

    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    metrics, attempted, failed, correct = {}, 0, 0, True
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        for name, trace in runs:
            chosen, ledger, ok = run_workload(name, args.seed, args.seconds, trace, spec, workdir)
            prefix = "" if len(runs) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in chosen.items()})
            attempted += ledger.attempted
            failed += ledger.failed
            correct = correct and ok
    if args.workload == "all":
        for record in run_probes():
            print("probe " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
