"""Byte goldens for the command line: exact stdout, stderr and exit code
per invocation.

Every kind with and without --json, --breakdown for the three kinds that
have it, both table modes in csv and json, profile fields, the small
selfcheck grid, refused inputs (exit 2 and 3), tables under a bit limit,
and what argparse writes: help, usage and its errors.  argparse wraps
that text to the terminal width, so each case runs with COLUMNS set, to
COLUMNS_DEFAULT unless the case starts with its own COLUMNS=<width>.  A
case may also start with PADICOUNT_MAX_BITS=<n>; without it the bit
limit is unset.  Under a limit, which power a refusal names depends on
the order the table evaluates its cells and totals.

This module needs no pytest, so other interpreters can replay the
goldens; tests/test_cli_goldens.py runs the same cases under pytest.
They were recorded under CPython 3.11.7.  The 4 cases argparse refuses
with "invalid choice" carry that argparse's wording, which quotes each
choice; 3.13.13's does not.  So --check compares those lines in the
running argparse's wording, read off a throwaway parser that refuses the
same value among the same choices, and every other byte as recorded.
It matches under 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13.  A
refactor must keep every byte:

    PYTHONPATH=src python tests/cli_goldens.py --check

replays every case and exits 1 on any mismatch.  An intended output
change re-records the file with

    PYTHONPATH=src python tests/cli_goldens.py

and the diff of tests/data/cli_goldens.json shows what moved.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

from padicount.cli import main

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "data" / "cli_goldens.json"
K1 = "data/ramified_quadratic_q3.json"  # paths echo in the output, so relative to HERE
K2 = "data/unramified_quadratic_q2.json"
COLUMNS_DEFAULT = "80"

CASES = [
    # every kind, plain and --json
    "count iso-ef --qp 3 --e 3 --f 1",
    "count iso-ef --qp 2 --e 4 --f 2 --json",
    "count iso-total --qp 2 --n 8",
    "count iso-total --qp 3 --n 6 --json",
    "count krasner --qp 2 --e 2 --f 1",
    "count krasner --qp 3 --e 9 --f 2 --json",
    "count cyclic-ef --qp 2 --e 2 --f 1",
    "count cyclic-ef --qp 3 --e 3 --f 2 --json",
    "count cyclic-total --qp 2 --d 8",
    "count cyclic-total --qp 5 --d 10 --json",
    "count tame --qp 5 --e 2 --f 1",
    "count tame --qp 2 --e 3 --f 4 --json",
    # --breakdown, text and json
    "count iso-ef --qp 2 --e 2 --f 1 --breakdown",
    "count iso-ef --qp 2 --e 8 --f 2 --breakdown --json",
    "count iso-total --qp 2 --n 4 --breakdown",
    "count iso-total --qp 3 --n 9 --breakdown --json",
    "count tame --qp 7 --e 4 --f 6 --breakdown",
    "count tame --qp 2 --e 3 --f 4 --breakdown --json",
    # profile fields
    f"count iso-ef --profile {K1} --e 3 --f 1 --json",
    f"count iso-ef --profile {K1} --e 6 --f 2 --breakdown",
    f"count iso-total --profile {K2} --n 4",
    f"count cyclic-total --profile {K1} --d 6 --json",
    f"count tame --profile {K2} --e 3 --f 2 --breakdown",
    # tables
    "table --qp 2 --n-max 6",
    "table --qp 3 --n-max 4 --format json",
    "table --qp 1000003 --e-max 3 --f-max 2 --format csv",
    "table --qp 2 --e-max 3 --f-max 3 --format json",
    f"table --profile {K1} --n-max 4 --format json",
    f"table --profile {K2} --e-max 4 --f-max 2",
    "selfcheck --grid small",
    # refused inputs
    "count iso-ef --qp 9 --e 2 --f 1",
    "count tame --qp 3 --e 6 --f 1",
    "count krasner --qp 2 --e 2 --f 1 --breakdown",
    "count iso-total --qp 3",
    "count iso-ef --qp 3 --e 3 --f 1 --n 5",
    "count cyclic-total --qp 3 --d 0",
    "count bogus --qp 3 --e 1 --f 1",
    "table --qp 2",
    "table --qp 2 --e-max 2",
    "count iso-ef --profile data/invalid_unit_overflow.json --e 3 --f 1",
    "count iso-ef --profile data/shallow_q2.json --e 2 --f 1",
    "count iso-ef --profile data/missing.json --e 1 --f 1",
    f"count krasner --qp 2 --e {1 << 25} --f 1",
    f"count cyclic-total --qp 2 --d {1_000_000_007 * 1_000_000_009}",
    # under a bit limit: the power a refusal names follows the evaluation order
    f"PADICOUNT_MAX_BITS=3 table --profile {K2} --n-max 24",
    f"PADICOUNT_MAX_BITS=13 table --profile {K1} --n-max 18",
    f"PADICOUNT_MAX_BITS=13 table --profile {K1} --n-max 18 --format json",
    "PADICOUNT_MAX_BITS=6 count iso-total --qp 2 --n 8",
    "PADICOUNT_MAX_BITS=4 table --qp 2 --n-max 4",
    # what argparse writes: help, usage and its refusals
    "--help",
    "count --help",
    "table --help",
    "selfcheck --help",
    "",
    "count",
    "foo",
    "--x count iso-ef --qp 2 --e 4 --f 1",
    "count iso-ef --qp 2 --e 4 --f 1 --br",
    "table --qp 2 --n-max 4 --prof x",
    "count table --qp 2",
    "count iso-ef --profile table --e 2 --f 1",
    "selfcheck --grid tiny",
    "COLUMNS=60 count --help",
    "COLUMNS=200 count --help",
    # a command named but never entered
    "--help count",
    "selfcheck count",
    # a complete command line, then a token left over, or a --
    "count iso-ef --qp 2 --e 4 --f 1 extra",
    "table --qp 2 --n-max 2 x",
    "count iso-ef --qp 2 --e 4 --f 1 --",
    "count --qp 2 --e 4 --f 1 -- iso-ef",
]


def invoke(case: str) -> dict:
    """Exit code, stdout and stderr of one in-process run of case, under
    the COLUMNS=<width> and PADICOUNT_MAX_BITS=<n> settings it starts with."""
    env = {"COLUMNS": COLUMNS_DEFAULT}
    while case.startswith(("COLUMNS=", "PADICOUNT_MAX_BITS=")):
        setting, _, case = case.partition(" ")
        name, _, value = setting.partition("=")
        env[name] = value
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(case.split())
        except SystemExit as exc:  # argparse's help and refusals
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


INVALID_CHOICE = re.compile(r"invalid choice: (.*) \(choose from (.*)\)$", re.MULTILINE)


def _running_wording(match: re.Match) -> str:
    """A recorded invalid-choice refusal as the running argparse words it:
    a throwaway parser refuses the same value among the same choices."""
    value, choices = ast.literal_eval(match[1]), ast.literal_eval(f"[{match[2]}]")
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("choice", choices=choices)
    try:
        parser.parse_args([value])
    except argparse.ArgumentError as exc:
        return exc.message


def in_running_wording(golden: dict) -> dict:
    """golden with its invalid-choice lines in the running argparse's wording."""
    return {**golden, "stderr": INVALID_CHOICE.sub(_running_wording, golden["stderr"])}


def replay(check: bool) -> int:
    """Run every case from HERE with the bit limit unset unless the case
    sets it; write the record to GOLDENS, or, with check, compare it, its
    invalid-choice lines in the running argparse's wording, and return 1
    on any mismatch."""
    os.chdir(HERE)
    os.environ.pop("PADICOUNT_MAX_BITS", None)
    record = {case: invoke(case) for case in CASES}
    if not check:
        GOLDENS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 0
    goldens = load_goldens()
    stale = sorted(goldens.keys() - record.keys())
    moved = [
        case for case in CASES
        if case not in goldens or in_running_wording(goldens[case]) != record[case]
    ]
    for case in moved:
        print(f"mismatch: {case!r}")
    for case in stale:
        print(f"no such case: {case!r}")
    print(f"{len(CASES) - len(moved)} of {len(CASES)} cases match ({sys.version.split()[0]})")
    return 1 if moved or stale else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/cli_goldens.py [--check]")
    sys.exit(replay(check=sys.argv[1:] == ["--check"]))
