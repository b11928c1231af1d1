"""Best-of-N in-process times of each selfcheck suite, with the lemma
suite's phases, or an A/B comparison of two trees' selfcheck ops.

    python3 tools/suite_times.py [--src DIR] [--repeat N] [--grid full|small]
    python3 tools/suite_times.py [--src DIR] --against OTHER [--pairs N] [--grid full|small]

DIR is the source root that holds the padicount package, by default this
repository's src.  To compare two trees, run the script once per tree in
turn, alternating, each in its own interpreter.  It calls the oracles
without a cap argument, so a tree whose lemma_group_zoo, subgroups and
lemma_check still take one needs the copy of this script from that tree.

Each suite is timed inside a full run_selfcheck call, so the suites share
whatever one run shares.  The lemma suite is also timed in three phases,
each on a fresh zoo: building the zoo (axiom checks included), building
every lattice through subgroups, as lemma_check does, and every
lemma_check once the lattices exist.  "compile" is the time to compile
selfcheck.py and oracles.py from source, which a fresh interpreter
without bytecode pays on its first selfcheck.  Every figure is the best
of N repetitions, in milliseconds.

With --against, the source root OTHER is compared with DIR instead: N
pairs of fresh interpreters, one per tree in each pair, the first tree
alternating, each timing one selfcheck op as bench/worker.py does: the
CPU time of cli.main with stdout captured, after an untimed warm-up
count.  It prints each tree's median and quartiles and the number of
pairs DIR won.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def best_of(repeat: int, run) -> float:
    """The shortest of repeat runs of run(), in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def suite_times(selfcheck, grid: str, repeat: int) -> dict[str, float]:
    """suite name -> best time inside run_selfcheck, and "total"."""
    times = {}

    def timed(suite):
        def run(*args, **kwargs):
            start = time.perf_counter()
            result = suite(*args, **kwargs)
            elapsed = (time.perf_counter() - start) * 1e3
            times[result.name] = min(times.get(result.name, float("inf")), elapsed)
            return result

        return run

    names = [name for name in vars(selfcheck) if name.endswith("_suite")]
    real = {name: getattr(selfcheck, name) for name in names}
    for name in names:
        setattr(selfcheck, name, timed(real[name]))
    try:
        total = best_of(repeat, lambda: selfcheck.run_selfcheck(grid=grid))
    finally:
        for name in names:
            setattr(selfcheck, name, real[name])
    return {**times, "total": total}


def lemma_phases(selfcheck, oracles, arith, grid: str, repeat: int) -> dict[str, float]:
    """The lemma suite's three phases, each the best of repeat runs."""
    small = grid == "small"

    def zoo():
        return selfcheck.lemma_group_zoo(small)

    lattices = checks = float("inf")
    for _ in range(repeat):
        groups = zoo()
        lattices = min(lattices, best_of(1, lambda: [oracles.subgroups(G) for G in groups]))
        checks = min(checks, best_of(1, lambda: [
            oracles.lemma_check(G, n) for G in groups for n in arith.divisors(G.order)
        ]))
    return {"lemma: zoo build": best_of(repeat, zoo), "lemma: lattices": lattices,
            "lemma: checks": checks}


# one selfcheck op in a fresh interpreter; the warm-up is bench/worker.py's WARMUP_ARGV
ONE_OP = """
import contextlib, io, sys, time
from padicount import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["count", "krasner", "--qp", "11", "--e", "1", "--f", "1"])
    start = time.process_time()
    code = cli.main(sys.argv[1:])
    elapsed = time.process_time() - start
print(code, elapsed * 1e3)
"""


def op_ms(src: Path, grid: str) -> float:
    """CPU milliseconds of one selfcheck op in a fresh interpreter on src."""
    env = {k: v for k, v in os.environ.items() if k != "PADICOUNT_MAX_BITS"}
    env["PYTHONPATH"] = str(src)
    run = subprocess.run([sys.executable, "-c", ONE_OP, "selfcheck", "--grid", grid],
                         env=env, capture_output=True, text=True, check=True)
    code, ms = run.stdout.split()
    if code != "0":
        raise SystemExit(f"selfcheck exited {code} on {src}")
    return float(ms)


def against(src: Path, other: Path, pairs: int, grid: str) -> None:
    """Alternate pairs of fresh-interpreter ops on src and other; print each
    side's median and quartiles and src's wins."""
    times = {src: [], other: []}
    for k in range(pairs):
        for root in (src, other) if k % 2 == 0 else (other, src):
            times[root].append(op_ms(root, grid))
    print(f"# selfcheck --grid {grid}, CPython {platform.python_version()}, "
          f"{os.cpu_count()} cores, {pairs} alternating pairs, CPU ms per op")
    for root, ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4)
        print(f"{root}: median {median:.2f}, quartiles {q1:.2f} {q3:.2f}")
    wins = sum(a < b for a, b in zip(times[src], times[other]))
    print(f"{src} faster in {wins} of {pairs} pairs")


def compile_time(package: Path, repeat: int) -> float:
    sources = [(package / name).read_text() for name in ("selfcheck.py", "oracles.py")]
    return best_of(repeat, lambda: [compile(text, "<module>", "exec") for text in sources])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="source root")
    parser.add_argument("--repeat", type=int, default=7, help="repetitions per figure")
    parser.add_argument("--grid", choices=("full", "small"), default="full")
    parser.add_argument("--against", type=Path, help="source root to compare with, op by op")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs with --against")
    args = parser.parse_args(argv)
    for root in filter(None, (args.src, args.against)):
        if not (root / "padicount" / "selfcheck.py").is_file():
            parser.error(f"no padicount package under {root}")
    if args.repeat < 1 or args.pairs < 2:
        parser.error("--repeat must be >= 1 and --pairs >= 2")
    if args.against:
        against(args.src.resolve(), args.against.resolve(), args.pairs, args.grid)
        return 0
    package = args.src.resolve() / "padicount"
    sys.path.insert(0, str(args.src.resolve()))
    from padicount import arith, oracles, selfcheck

    print(f"# {package}, CPython {platform.python_version()}, {os.cpu_count()} cores, "
          f"grid {args.grid}, best of {args.repeat}, ms")
    figures = suite_times(selfcheck, args.grid, args.repeat)
    figures.update(lemma_phases(selfcheck, oracles, arith, args.grid, args.repeat))
    figures["compile"] = compile_time(package, args.repeat)
    width = max(map(len, figures))
    for name, ms in figures.items():
        print(f"{name:<{width}}  {ms:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
