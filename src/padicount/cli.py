"""Command-line interface: single counts, (e, f) tables, and the selfcheck suite.

All counts are serialized as decimal strings in JSON so consumers without
big integers stay safe; output bytes are fully deterministic.  Exit codes:
0 success, 1 selfcheck failure, 2 precondition violation or malformed
input, 3 magnitude or work limit, 4 internal consistency failure (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arith, counting, theorems
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile, cyclic_profile_of, load_profile, qp_profile
from .selfcheck import (
    DEFAULT_MAX_ABELIAN_ORDER,
    DEFAULT_MAX_TABLE_ORDER,
    run_selfcheck,
)

COUNT_KINDS = ("iso-ef", "iso-total", "krasner", "cyclic-ef", "cyclic-total", "tame")
_NEEDED_PARAMS = {
    "iso-ef": ("e", "f"),
    "iso-total": ("n",),
    "krasner": ("e", "f"),
    "cyclic-ef": ("e", "f"),
    "cyclic-total": ("d",),
    "tame": ("e", "f"),
}
BREAKDOWN_KINDS = ("iso-ef", "iso-total", "tame")


def to_json(payload) -> str:
    """Canonical JSON: fixed key order, two-space indent, no floats anywhere."""
    return json.dumps(payload, indent=2)


def _positive(name, value):
    if value is None:
        return
    if value < 1:
        raise DomainError(f"--{name} must be >= 1")


def _auto_depth(kind: str, p: int, args) -> int:
    """Cyclotomic depth a Q_p profile needs for this query."""
    if kind == "iso-ef":
        return arith.p_valuation(args.e, p).s
    if kind == "iso-total":
        return arith.p_valuation(args.n, p).s
    if kind in ("cyclic-ef", "cyclic-total"):
        return 2 if p == 2 else 1  # enough levels to pin down xi
    return 0


def _field_for(args, depth: int) -> BaseFieldProfile:
    if args.qp is not None:
        return qp_profile(args.qp, depth)
    return load_profile(args.profile)


def _field_echo(args) -> list[tuple[str, object]]:
    if args.qp is not None:
        return [("qp", args.qp)]
    return [("profile", args.profile)]


def _breakdown_records(kind: str, terms):
    if kind == "iso-ef":
        return [
            {"i": t.i, "e1": t.e1, "f1": t.f1, "e2": t.e2, "f2": t.f2, "term": str(t.term)}
            for t in terms
        ]
    if kind == "iso-total":
        return [
            {"i": t.i, "d": t.d, "e1": t.e1, "f1": t.f1, "term": str(t.term)} for t in terms
        ]
    return [{"i": t.i, "term": str(t.term)} for t in terms]


def _cmd_count(args) -> int:
    kind = args.kind
    needed = _NEEDED_PARAMS[kind]
    for name in ("e", "f", "n", "d"):
        value = getattr(args, name)
        if name in needed and value is None:
            raise DomainError(f"kind {kind} requires --{name}")
        if name not in needed and value is not None:
            raise DomainError(f"kind {kind} does not take --{name}")
        _positive(name, value)
    if args.breakdown and kind not in BREAKDOWN_KINDS:
        raise DomainError(f"--breakdown is not available for kind {kind}")

    depth = 0 if args.qp is None else _auto_depth(kind, args.qp, args)
    profile = _field_for(args, depth)

    terms = None
    if kind == "iso-ef":
        value, terms = theorems.iso_count_ef_terms(profile, args.e, args.f)
    elif kind == "iso-total":
        value, terms = theorems.iso_count_total_terms(profile, args.n)
    elif kind == "tame":
        # the per-i summands come from the cross-check, run only when printed
        value, terms = theorems.tame_iso_count_terms(
            profile, args.e, args.f, cross_check=args.breakdown
        )
    elif kind == "krasner":
        value = counting.krasner_count(
            counting.KrasnerQuery(profile.p, profile.n0, args.e, args.f)
        )
    elif kind == "cyclic-ef":
        value = counting.cyclic_count_ef(cyclic_profile_of(profile), args.e, args.f)
    else:
        value = counting.cyclic_count_total(cyclic_profile_of(profile), args.d)

    query = {"kind": kind}
    query.update(_field_echo(args))
    for name in needed:
        query[name] = getattr(args, name)

    if args.json:
        payload = {"query": query, "value": str(value)}
        if args.breakdown:
            payload["breakdown"] = _breakdown_records(kind, terms)
        print(to_json(payload))
    else:
        if args.breakdown:
            for record in _breakdown_records(kind, terms):
                parts = [f"{key}={val}" for key, val in record.items()]
                print("  ".join(parts))
        print(value)
    return 0


def _table_rows(args):
    cells = []
    totals = []
    if args.n_max is not None:
        for n in range(1, args.n_max + 1):
            for e, f in arith.divisor_pairs(n):
                cells.append((e, f))
            totals.append(n)
    else:
        for e in range(1, args.e_max + 1):
            for f in range(1, args.f_max + 1):
                cells.append((e, f))
    return cells, totals


def _cmd_table(args) -> int:
    degree_mode = args.n_max is not None
    rect_mode = args.e_max is not None or args.f_max is not None
    if degree_mode == rect_mode:
        raise DomainError("table needs either --n-max or both --e-max and --f-max")
    if rect_mode and (args.e_max is None or args.f_max is None):
        raise DomainError("rectangle mode needs both --e-max and --f-max")
    for name in ("n_max", "e_max", "f_max"):
        _positive(name.replace("_", "-"), getattr(args, name))

    depth = 0
    if args.qp is not None:
        # deepest level any cell or total can demand
        top = args.n_max if degree_mode else args.e_max
        depth = max(arith.p_valuation(m, args.qp).s for m in range(1, top + 1))
    profile = _field_for(args, depth)

    cell_keys, total_keys = _table_rows(args)
    cells = []
    classes = {}
    for e, f in cell_keys:
        fields = counting.krasner_count(counting.KrasnerQuery(profile.p, profile.n0, e, f))
        classes[e, f] = theorems.iso_count_ef(profile, e, f)
        cells.append({"e": e, "f": f, "krasner": str(fields), "classes": str(classes[e, f])})
    totals = []
    for n in total_keys:
        # the total route stays independent of the cells it is checked against
        from_total = theorems.iso_count_total(profile, n)
        from_cells = sum(classes[e, f] for e, f in arith.divisor_pairs(n))
        if from_total != from_cells:
            raise ConsistencyError(
                f"degree {n}: total route gives {from_total}, (e,f) cells give {from_cells}"
            )
        totals.append(
            {"n": n, "classes_total": str(from_total), "classes_from_ef": str(from_cells)}
        )

    if args.format == "json":
        query = {"command": "table"}
        query.update(_field_echo(args))
        if degree_mode:
            query["n_max"] = args.n_max
        else:
            query["e_max"] = args.e_max
            query["f_max"] = args.f_max
        payload = {"query": query, "cells": cells}
        if degree_mode:
            payload["totals"] = totals
        text = to_json(payload) + "\n"
    else:
        lines = ["e,f,krasner,classes"]
        lines += [f"{c['e']},{c['f']},{c['krasner']},{c['classes']}" for c in cells]
        if degree_mode:
            lines.append("")
            lines.append("n,classes_total,classes_from_ef")
            lines += [f"{t['n']},{t['classes_total']},{t['classes_from_ef']}" for t in totals]
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck(
        grid=args.grid,
        max_abelian_order=args.max_abelian_order,
        max_table_order=args.max_table_order,
    )
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "ok" if r.ok else f"FAIL ({r.fail_count} of {r.checks})"
        print(f"{r.name:<{width}}  {r.checks:>5} checks  {status}")
        if not r.ok:
            failed = True
            print(f"  first counterexample: {r.failures[0]}")
    if failed:
        print("selfcheck: FAILED")
        return 1
    print("selfcheck: all suites pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicount",
        description="Exact counts of extensions of p-adic fields with prescribed "
        "ramification and inertia, or prescribed degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--qp", type=int, metavar="P", help="use the base field Q_p")
        group.add_argument("--profile", metavar="PATH", help="JSON base-field profile")

    count = sub.add_parser("count", help="compute a single count")
    count.add_argument("kind", choices=COUNT_KINDS)
    add_field_source(count)
    count.add_argument("--e", type=int, help="ramification index")
    count.add_argument("--f", type=int, help="inertia degree")
    count.add_argument("--n", type=int, help="degree (iso-total)")
    count.add_argument("--d", type=int, help="degree (cyclic-total)")
    count.add_argument("--breakdown", action="store_true", help="also print the summands")
    count.add_argument("--json", action="store_true", help="machine-readable output")
    count.set_defaults(handler=_cmd_count)

    table = sub.add_parser("table", help="tabulate counts over a parameter range")
    add_field_source(table)
    table.add_argument("--n-max", type=int, help="all (e, f) with e*f <= this degree")
    table.add_argument("--e-max", type=int, help="rectangle mode: e upper bound")
    table.add_argument("--f-max", type=int, help="rectangle mode: f upper bound")
    table.add_argument("--format", choices=("json", "csv"), default="csv")
    table.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    table.set_defaults(handler=_cmd_table)

    selfcheck = sub.add_parser("selfcheck", help="run the oracle and consistency suites")
    selfcheck.add_argument("--grid", choices=("small", "full"), default="full")
    selfcheck.add_argument(
        "--max-abelian-order", type=int, default=DEFAULT_MAX_ABELIAN_ORDER,
        help="skip enumeration groups larger than this",
    )
    selfcheck.add_argument(
        "--max-table-order", type=int, default=DEFAULT_MAX_TABLE_ORDER,
        help="skip Cayley tables larger than this",
    )
    selfcheck.set_defaults(handler=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"error: internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except MagnitudeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
