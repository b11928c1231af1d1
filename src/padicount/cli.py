"""Command-line interface: single counts, (e, f) tables, and the selfcheck suite.

All counts are serialized as decimal strings in JSON so consumers without
big integers stay safe, and printed in full however many digits they
have; output bytes are fully deterministic.  Exit codes: 0 success, 1
selfcheck failure, 2 precondition violation or malformed input, 3
magnitude or work limit, 4 internal consistency failure (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import arith, counting, oracles, theorems
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile, load_profile, qp_profile
from .selfcheck import DEFAULT_MAX_ABELIAN_ORDER, run_selfcheck


Kind = namedtuple("Kind", "params depth evaluate breakdown", defaults=(None,))
Kind.__doc__ = """One count kind: its parameter names, depth(p, args) for the Q_p depth it needs,
evaluate(K, args) for its count and, given summands to print, breakdown(K, args)."""


def _cyclic_depth(p, args):
    return 2 if p == 2 else 1  # enough levels to pin down xi


# Evaluators are looked up on their modules at call time, never bound here.
# Summands are built only when --breakdown prints them.
KINDS = {
    "iso-ef": Kind(
        ("e", "f"),
        lambda p, a: arith.p_valuation(a.e, p).s,
        lambda K, a: theorems.iso_count_ef(K, a.e, a.f),
        lambda K, a: theorems.iso_count_ef_terms(K, a.e, a.f),
    ),
    "iso-total": Kind(
        ("n",),
        lambda p, a: arith.p_valuation(a.n, p).s,
        lambda K, a: theorems.iso_count_total(K, a.n),
        lambda K, a: theorems.iso_count_total_terms(K, a.n),
    ),
    "krasner": Kind(
        ("e", "f"),
        lambda p, a: 0,
        lambda K, a: counting.krasner_count(K, a.e, a.f),
    ),
    "cyclic-ef": Kind(
        ("e", "f"),
        _cyclic_depth,
        lambda K, a: counting.cyclic_count_ef(K, a.e, a.f),
    ),
    "cyclic-total": Kind(
        ("d",),
        _cyclic_depth,
        lambda K, a: counting.cyclic_count_total(K, a.d),
    ),
    # the per-i summands come from the cross-check, run only when printed
    "tame": Kind(
        ("e", "f"),
        lambda p, a: 0,
        lambda K, a: theorems.tame_iso_count(K, a.e, a.f),
        lambda K, a: theorems.tame_iso_count_terms(K, a.e, a.f, cross_check=True),
    ),
}


def to_json(payload) -> str:
    """Canonical JSON: fixed key order, two-space indent, no floats anywhere."""
    return json.dumps(payload, indent=2)


def _digits(n: int) -> str:
    """n in decimal, however many digits: str refuses more than
    sys.get_int_max_str_digits(), decimal.Decimal converts exactly."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported only when needed: it slows every start-up

        return str(Decimal(n))


def _integer(text: str) -> int:
    """An integer option, read by arith.parse_decimal and never coerced."""
    value = arith.parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _positive(name, value):
    if value is not None and value < 1:
        raise DomainError(f"--{name} must be >= 1")


def _field_for(args, depth: int) -> BaseFieldProfile:
    if args.qp is not None:
        return qp_profile(args.qp, depth)
    return load_profile(args.profile)


def _field_echo(args) -> dict:
    if args.qp is not None:
        return {"qp": args.qp}
    return {"profile": args.profile}


def _cmd_count(args) -> int:
    kind = KINDS[args.kind]
    for name in ("e", "f", "n", "d"):
        value = getattr(args, name)
        if name in kind.params and value is None:
            raise DomainError(f"kind {args.kind} requires --{name}")
        if name not in kind.params and value is not None:
            raise DomainError(f"kind {args.kind} does not take --{name}")
        _positive(name, value)
    if args.breakdown and kind.breakdown is None:
        raise DomainError(f"--breakdown is not available for kind {args.kind}")

    depth = 0 if args.qp is None else kind.depth(args.qp, args)
    K = _field_for(args, depth)
    value, terms = kind.breakdown(K, args) if args.breakdown else (kind.evaluate(K, args), [])

    query = {"kind": args.kind, **_field_echo(args)}
    for name in kind.params:
        query[name] = getattr(args, name)
    records = [{**t._asdict(), "term": _digits(t.term)} for t in terms]

    if args.json:
        payload = {"query": query, "value": _digits(value)}
        if args.breakdown:
            payload["breakdown"] = records
        print(to_json(payload))
    else:
        for record in records:
            print("  ".join(f"{key}={val}" for key, val in record.items()))
        print(_digits(value))
    return 0


# One table row as to_json writes it inside its list, two levels deep.
_JSON_CELL = (
    '    {\n      "e": %d,\n      "f": %d,\n      "krasner": "%s",\n      "classes": "%s"\n    }'
)
_JSON_TOTAL = (
    '    {\n      "n": %d,\n      "classes_total": "%s",\n      "classes_from_ef": "%s"\n    }'
)


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
    bits = counting.magnitude_bits()  # once for the whole table
    pairs = profile._memo[arith.divisor_pairs]

    if degree_mode:
        total_keys = range(1, args.n_max + 1)
        cell_keys = [pair for n in total_keys for pair in pairs[n]]
    else:
        total_keys = ()
        cell_keys = [(e, f) for e in range(1, args.e_max + 1) for f in range(1, args.f_max + 1)]
    cells = []
    classes = {}
    for e, f in cell_keys:
        fields = counting.krasner_count(profile, e, f, bits)
        classes[e, f] = count = theorems.iso_count_ef(profile, e, f, bits)
        cells.append((e, f, _digits(fields), _digits(count)))
    totals = []
    for n in total_keys:
        # the total route stays independent of the cells it is checked against
        from_total = theorems.iso_count_total(profile, n, bits)
        from_cells = sum(classes[e, f] for e, f in pairs[n])
        if from_total != from_cells:
            raise ConsistencyError(
                f"degree {n}: total route gives {_digits(from_total)}, "
                f"(e,f) cells give {_digits(from_cells)}"
            )
        totals.append((n, _digits(from_total), _digits(from_cells)))

    if args.format == "json":
        query = {"command": "table", **_field_echo(args)}
        if degree_mode:
            query["n_max"] = args.n_max
        else:
            query["e_max"] = args.e_max
            query["f_max"] = args.f_max
        # the bytes of to_json({"query": query, "cells": ..., "totals": ...}):
        # the query goes through the encoder, and each row, whose keys are
        # fixed and whose values are ints or digit strings, through its template
        text = '{\n  "query": ' + to_json(query).replace("\n", "\n  ")
        text += ',\n  "cells": [\n' + ",\n".join(_JSON_CELL % cell for cell in cells)
        if degree_mode:
            text += '\n  ],\n  "totals": [\n' + ",\n".join(_JSON_TOTAL % t for t in totals)
        text += "\n  ]\n}\n"
    else:
        lines = ["e,f,krasner,classes"]
        lines += ["%d,%d,%s,%s" % cell for cell in cells]
        if degree_mode:
            lines.append("")
            lines.append("n,classes_total,classes_from_ef")
            lines += ["%d,%s,%s" % total for total in totals]
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selfcheck(args) -> int:
    # run_selfcheck refuses a cap below 1 as well; checking here names the flag
    _positive("max-abelian-order", args.max_abelian_order)
    _positive("max-table-order", args.max_table_order)
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
        group.add_argument("--qp", type=_integer, metavar="P", help="use the base field Q_p")
        group.add_argument("--profile", metavar="PATH", help="JSON base-field profile")

    count = sub.add_parser("count", help="compute a single count")
    count.add_argument("kind", choices=KINDS)
    add_field_source(count)
    count.add_argument("--e", type=_integer, help="ramification index")
    count.add_argument("--f", type=_integer, help="inertia degree")
    count.add_argument("--n", type=_integer, help="degree (iso-total)")
    count.add_argument("--d", type=_integer, help="degree (cyclic-total)")
    count.add_argument("--breakdown", action="store_true", help="also print the summands")
    count.add_argument("--json", action="store_true", help="machine-readable output")
    count.set_defaults(handler=_cmd_count)

    table = sub.add_parser("table", help="tabulate counts over a parameter range")
    add_field_source(table)
    table.add_argument("--n-max", type=_integer, help="all (e, f) with e*f <= this degree")
    table.add_argument("--e-max", type=_integer, help="rectangle mode: e upper bound")
    table.add_argument("--f-max", type=_integer, help="rectangle mode: f upper bound")
    table.add_argument("--format", choices=("json", "csv"), default="csv")
    table.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    table.set_defaults(handler=_cmd_table)

    selfcheck = sub.add_parser("selfcheck", help="run the oracle and consistency suites")
    selfcheck.add_argument("--grid", choices=("small", "full"), default="full")
    selfcheck.add_argument(
        "--max-abelian-order", type=_integer, default=DEFAULT_MAX_ABELIAN_ORDER,
        help="skip enumeration groups larger than this",
    )
    selfcheck.add_argument(
        "--max-table-order", type=_integer, default=oracles.DEFAULT_TABLE_CAP,
        help="skip Cayley tables larger than this",
    )
    selfcheck.set_defaults(handler=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        counting.magnitude_bits()  # a malformed limit is refused whatever the command computes
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
