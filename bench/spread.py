"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads queries,table --runs 10

Runs bench/run.py once per seed, one run at a time, and prints for each
workload and metric the median of the runs and the spread, the distance
between the first and third quartiles as a share of the median.  A
metric is flagged when its spread is above a third of its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="queries,table,hard,selfcheck")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            spread = stats.quartile_spread(values[name])
            flag = "" if spread <= bound / 3 else "  ABOVE bound/3"
            steady = steady and (name == "setup_s" or not flag)
            print(
                f"{workload:<10} {name:<12} median {statistics.median(values[name]):>12.6g}"
                f"  spread {spread:7.4f}  bound {bound}{flag}"
                f"  runs {' '.join(f'{v:.4g}' for v in values[name])}",
                flush=True,
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
