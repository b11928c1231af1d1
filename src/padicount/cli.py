"""Command-line interface: single counts, (e, f) tables, and the selfcheck suite.

All counts are serialized as decimal strings in JSON so consumers without
big integers stay safe, and printed in full however many digits they
have; output bytes are fully deterministic.  Exit codes: 0 success, 1
selfcheck failure, 2 precondition violation or malformed input, 3
magnitude or work limit, 4 internal consistency failure (a bug).
main reads PADICOUNT_MAX_BITS once, as args.bits, and hands it on; a
selfcheck cap left unset is not passed, so run_selfcheck's default applies.

Each command loads only the modules it uses.  count and table load
arith, errors, profiles, counting and theorems, and json only to write
JSON or read a profile file; selfcheck alone loads the oracles and
selfcheck layers, when it runs.  parse_args dispatches a command line
as argparse does: one that starts with a command's name is parsed by
that command's parser alone, the only one built.  Help, errors and any
other line, one with tokens left over included, go through
build_parser(), the whole command line, which writes every top-level byte.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from collections import Counter, namedtuple

from . import arith, counting, theorems
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile, load_profile, qp_profile


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
        lambda K, a: theorems.iso_count_ef(K, a.e, a.f, a.bits),
        lambda K, a: theorems.iso_count_ef_terms(K, a.e, a.f, a.bits),
    ),
    "iso-total": Kind(
        ("n",),
        lambda p, a: arith.p_valuation(a.n, p).s,
        lambda K, a: theorems.iso_count_total(K, a.n, a.bits),
        lambda K, a: theorems.iso_count_total_terms(K, a.n, a.bits),
    ),
    "krasner": Kind(
        ("e", "f"),
        lambda p, a: 0,
        lambda K, a: counting.krasner_count(K, a.e, a.f, a.bits),
    ),
    "cyclic-ef": Kind(
        ("e", "f"),
        _cyclic_depth,
        lambda K, a: counting.cyclic_count_ef(K, a.e, a.f, a.bits),
    ),
    "cyclic-total": Kind(
        ("d",),
        _cyclic_depth,
        lambda K, a: counting.cyclic_count_total(K, a.d, a.bits),
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
    import json  # imported only when needed: it slows every start-up

    return json.dumps(payload, indent=2)


def _integer(text: str) -> int:
    """An integer option, read by arith.parse_decimal and never coerced."""
    value = arith.parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _positive(name, value):
    if value is not None and value < 1:
        raise DomainError(f"--{name} must be >= 1")


def _field_for(args, depth):
    """The base field that args name, and its echo in a JSON query.

    Q_p at depth 0, (p, 1, 1), is built first, so the constructor refuses
    a p that is not prime before depth(p), the depth its levels need, is
    derived from p; only a depth above 0 goes through qp_profile.
    """
    if args.qp is None:
        return load_profile(args.profile), {"profile": args.profile}
    K = BaseFieldProfile(args.qp, 1, 1)
    levels = depth(args.qp)
    return (qp_profile(args.qp, levels) if levels else K), {"qp": args.qp}


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

    K, echo = _field_for(args, lambda p: kind.depth(p, args))
    value, terms = kind.breakdown(K, args) if args.breakdown else (kind.evaluate(K, args), [])

    query = {"kind": args.kind, **echo}
    for name in kind.params:
        query[name] = getattr(args, name)
    records = [{**t._asdict(), "term": arith.format_decimal(t.term)} for t in terms]

    if args.json:
        payload = {"query": query, "value": arith.format_decimal(value)}
        if args.breakdown:
            payload["breakdown"] = records
        print(to_json(payload))
    else:
        for record in records:
            print("  ".join(f"{key}={val}" for key, val in record.items()))
        print(arith.format_decimal(value))
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

    top = args.n_max if degree_mode else args.e_max

    def deepest(p):  # the deepest level any cell or total can demand
        return max(arith.p_valuation(m, p).s for m in range(1, top + 1))

    profile, echo = _field_for(args, deepest)
    if args.qp is None:  # a profile file too short is refused before the first cell
        profile.level(deepest(profile.p))
    if degree_mode:
        pairs = profile._memo[arith.divisor_pairs]
        degrees = range(1, args.n_max + 1)
        cell_keys = [pair for n in degrees for pair in pairs[n]]
        sizes = {"n_max": args.n_max}
    else:
        degrees = ()
        cell_keys = [(e, f) for e in range(1, args.e_max + 1) for f in range(1, args.f_max + 1)]
        sizes = {"e_max": args.e_max, "f_max": args.f_max}
    cells = []
    from_cells = Counter()  # degree e*f -> the sum of its cells' class counts
    for e, f in cell_keys:
        fields = counting.krasner_count(profile, e, f, args.bits)
        count = theorems.iso_count_ef(profile, e, f, args.bits)
        from_cells[e * f] += count
        cells.append((e, f, arith.format_decimal(fields), arith.format_decimal(count)))
    totals = []  # after every cell: under a bit limit, a cell's refusal comes first
    for n in degrees:
        # the total route stays independent of the cells it is checked against
        from_total = theorems.iso_count_total(profile, n, args.bits)
        if from_total != from_cells[n]:
            raise ConsistencyError(
                f"degree {n}: total route gives {arith.format_decimal(from_total)}, "
                f"(e,f) cells give {arith.format_decimal(from_cells[n])}"
            )
        totals.append((n, arith.format_decimal(from_total), arith.format_decimal(from_cells[n])))

    if args.format == "json":
        query = {"command": "table", **echo, **sizes}
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
    caps = {name: getattr(args, name) for name in ("max_abelian_order", "max_table_order")}
    caps = {name: value for name, value in caps.items() if value is not None}
    for name, value in caps.items():
        _positive(name.replace("_", "-"), value)  # run_selfcheck refuses it too; this names the flag
    from .selfcheck import run_selfcheck  # the oracle layer loads only for selfcheck

    results = run_selfcheck(grid=args.grid, bits=args.bits, **caps)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = (
            "skipped" if not r.checks else "ok" if r.ok else f"FAIL ({r.fail_count} of {r.checks})"
        )
        print(f"{r.name:<{width}}  {r.checks:>5} checks  {status}")
        if not r.ok:
            failed = True
            print(f"  first counterexample: {r.failures[0]}")
    if failed:
        print("selfcheck: FAILED")
        return 1
    print("selfcheck: all suites pass")
    return 0


def _add_field_source(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qp", type=_integer, metavar="P", help="use the base field Q_p")
    group.add_argument("--profile", metavar="PATH", help="JSON base-field profile")


def _count_arguments(count):
    count.add_argument("kind", choices=KINDS)
    _add_field_source(count)
    count.add_argument("--e", type=_integer, help="ramification index")
    count.add_argument("--f", type=_integer, help="inertia degree")
    count.add_argument("--n", type=_integer, help="degree (iso-total)")
    count.add_argument("--d", type=_integer, help="degree (cyclic-total)")
    count.add_argument("--breakdown", action="store_true", help="also print the summands")
    count.add_argument("--json", action="store_true", help="machine-readable output")


def _table_arguments(table):
    _add_field_source(table)
    table.add_argument("--n-max", type=_integer, help="all (e, f) with e*f <= this degree")
    table.add_argument("--e-max", type=_integer, help="rectangle mode: e upper bound")
    table.add_argument("--f-max", type=_integer, help="rectangle mode: f upper bound")
    table.add_argument("--format", choices=("json", "csv"), default="csv")
    table.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")


def _selfcheck_arguments(selfcheck):
    selfcheck.add_argument("--grid", choices=("small", "full"), default="full")
    selfcheck.add_argument(
        "--max-abelian-order", type=_integer, help="skip enumeration groups larger than this"
    )
    selfcheck.add_argument(
        "--max-table-order", type=_integer, help="skip Cayley tables larger than this"
    )


# name: (help, add_arguments(subparser), handler(args))
COMMANDS = {
    "count": ("compute a single count", _count_arguments, _cmd_count),
    "table": ("tabulate counts over a parameter range", _table_arguments, _cmd_table),
    "selfcheck": ("run the oracle and consistency suites", _selfcheck_arguments, _cmd_selfcheck),
}


def _formatter():
    """The formatter class for every parser: argparse's default one reads
    the terminal width again for every argument."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: every command, with its arguments and handler."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="padicount",
        description="Exact counts of extensions of p-adic fields with prescribed "
        "ramification and inertia, or prescribed degree.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=formatter)
        add_arguments(command)
        command.set_defaults(handler=handler)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) parses it.  A line that
    starts with a command's name is parsed by that command's parser, as
    argparse would dispatch it; if tokens are left over, the whole parser
    parses the line again to refuse them with the top-level usage."""
    if argv and argv[0] in COMMANDS:
        _, add_arguments, handler = COMMANDS[argv[0]]
        command = argparse.ArgumentParser(prog=f"padicount {argv[0]}", formatter_class=_formatter())
        add_arguments(command)
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command, args.handler = argv[0], handler
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        # read once: a malformed limit is refused whatever the command computes
        args.bits = counting.magnitude_bits()
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"error: internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except MagnitudeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
