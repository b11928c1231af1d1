"""Best-of-N in-process times of each selfcheck suite, with the lemma
suite's phases.

    python3 tools/suite_times.py [--src DIR] [--repeat N] [--grid full|small]

DIR is the source root that holds the padicount package, by default this
repository's src.  To compare two trees, run the script once per tree in
turn, alternating, each in its own interpreter.  It calls the oracles
without a cap argument, so a tree whose lemma_group_zoo, subgroups and
lemma_check still take one needs the copy of this script from that tree.

Each suite is timed inside a full run_selfcheck call, so the suites share
whatever one run shares.  The lemma suite is also timed in three phases,
each on a fresh zoo: building the zoo (axiom checks included), building
every lattice, and every lemma_check once the lattices exist.  "compile"
is the time to compile selfcheck.py and oracles.py from source, which a
fresh interpreter without bytecode pays on its first selfcheck.  Every
figure is the best of N repetitions, in milliseconds.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import platform
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


def compile_time(package: Path, repeat: int) -> float:
    sources = [(package / name).read_text() for name in ("selfcheck.py", "oracles.py")]
    return best_of(repeat, lambda: [compile(text, "<module>", "exec") for text in sources])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="source root")
    parser.add_argument("--repeat", type=int, default=7, help="repetitions per figure")
    parser.add_argument("--grid", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    package = args.src.resolve() / "padicount"
    if not (package / "selfcheck.py").is_file():
        parser.error(f"no padicount package under {args.src}")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
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
