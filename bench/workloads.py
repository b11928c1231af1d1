"""Seeded workloads for the padicount benchmark, and the checks on their answers.

A workload is a list of groups; a group is one or more CLI invocations
(ops) whose answers are checked together.  Everything is derived from
the seed, so the same seed always gives the same argv lists.  Expected
answers come from facts that do not depend on padicount's code: the
published totals of Jones and Roberts ("A database of local fields",
J. Symb. Comput. 41, 2006), the README examples, an independent
implementation of the tame class count, the count e of tamely ramified
extensions inside a fixed closure, and identities between query kinds.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("queries", "table", "hard", "selfcheck")


class Mismatch(Exception):
    """An op's output is malformed or disagrees with a known answer."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: int | None = None


@dataclass(frozen=True)
class Group:
    ops: tuple[Op, ...]
    # "equal": every op gives the same value; "sum": the first op's value
    # is the sum of the others' values.
    relation: str | None = None


# ---------------------------------------------------------------- references

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def factor(n: int) -> list[int]:
    """Distinct prime factors of a small n by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def phi(n: int) -> int:
    for q in factor(n):
        n -= n // q
    return n


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def valuation(n: int, p: int) -> int:
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s


def is_primitive_root(g: int, q: int) -> bool:
    """Whether g generates the units modulo the prime q."""
    return all(pow(g, (q - 1) // r, q) != 1 for r in factor(q - 1))


def tame_classes(p: int, f0: int, e: int, f: int) -> int:
    """Classes of extensions with p not dividing e, over a base of residue
    degree f0: (1/f) * sum over f1*f2 = f of phi(f2) * gcd(e, p^(f0*f1) - 1)."""
    total = sum(
        phi(f // f1) * math.gcd(e, (pow(p, f0 * f1, e) - 1) % e) for f1 in divisors(f)
    )
    if total % f:
        raise ArithmeticError(f"tame reference sum {total} not divisible by f = {f}")
    return total // f


# Invocations with answers fixed outside this code base.
GOLDENS = (
    ("count iso-ef --qp 3 --e 3 --f 1", 9),
    ("count iso-total --qp 2 --n 2 --json", 7),
    ("count krasner --qp 2 --e 2 --f 1", 6),
    ("count cyclic-ef --qp 2 --e 2 --f 1", 6),
    ("count cyclic-total --qp 2 --d 2", 7),
    ("count tame --qp 5 --e 2 --f 1", 2),
    ("count iso-ef --qp 2 --e 4 --f 1", 48),
    ("count iso-total --qp 2 --n 4", 59),
    ("count iso-total --qp 2 --n 6", 47),
    ("count iso-total --qp 2 --n 8 --json", 1823),
    ("count iso-total --qp 3 --n 9", 795),
)
# Degree totals I(Q_p, n) from the same sources, checked in degree tables.
GOLDEN_TOTALS = {2: {2: 7, 4: 59, 6: 47, 8: 1823}, 3: {3: 10, 9: 795}}

# ---------------------------------------------------------------- queries

COUNT_KINDS = ("iso-ef", "tame", "iso-total", "cyclic-total", "krasner", "cyclic-ef")
BREAKDOWN_KINDS = ("iso-ef", "iso-total", "tame")
QUERY_GROUPS = 300
PROFILE_SHARE = 0.25

# Base fields other than Q_p, each valid for padicount.profiles.validate:
# (name, p, e0, f0, cyclotomic levels as (e, f)).
PROFILES = (
    ("q3-ram2", 3, 2, 1, ((1, 2), (3, 2))),
    ("q2-unram2", 2, 1, 2, ((1, 1), (2, 1), (4, 1))),
    ("q3-unram2", 3, 1, 2, ((2, 1), (6, 1))),
    ("q5-zeta5", 5, 4, 1, ((1, 1), (5, 1))),
    ("q2-zeta4", 2, 2, 1, ((1, 1), (1, 1), (2, 1), (4, 1))),
    ("q7-unram3", 7, 1, 3, ((6, 1), (42, 1))),
)


@dataclass(frozen=True)
class Field:
    args: tuple[str, ...]
    p: int
    f0: int
    depth: int | None  # cyclotomic levels available; None for auto-built Q_p


def write_profiles(workdir) -> list[Field]:
    fields = []
    for name, p, e0, f0, levels in PROFILES:
        path = os.path.join(workdir, f"{name}.json")
        data = {
            "p": p,
            "e0": e0,
            "f0": f0,
            "cyclotomic": [{"i": i, "e": e, "f": f} for i, (e, f) in enumerate(levels, 1)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        fields.append(Field(("--profile", path), p, f0, len(levels)))
    return fields


def _count_op(rng, kind, field, expect=None, breakdown=0.3, **params) -> Op:
    """A count invocation; --breakdown with the given probability where the
    kind has one, and --json half of the time."""
    argv = ["count", kind, *field.args]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    if kind in BREAKDOWN_KINDS and rng.random() < breakdown:
        argv.append("--breakdown")
    if rng.random() < 0.5:
        argv.append("--json")
    return Op(tuple(argv), expect)


def _draw(rng, top, ok):
    while True:
        value = rng.randint(1, top)
        if ok(value):
            return value


def _query_group(rng, kind, qp_fields, profile_fields) -> Group:
    use_profile = rng.random() < PROFILE_SHARE
    field = rng.choice(profile_fields if use_profile else qp_fields)
    p = field.p

    def fits(m):  # the profile covers the levels v_p(m) demands
        return field.depth is None or valuation(m, p) <= field.depth

    def tame_ref(e, f):
        return tame_classes(p, field.f0, e, f) if e % p else None

    if kind in ("iso-ef", "tame"):
        e = _draw(rng, 16, lambda v: fits(v) and (kind == "iso-ef" or v % p))
        f = rng.randint(1, 16)
        first = _count_op(rng, kind, field, tame_ref(e, f), e=e, f=f)
        if e % p == 0:
            return Group((first,))
        other = "tame" if kind == "iso-ef" else "iso-ef"
        return Group((first, _count_op(rng, other, field, tame_ref(e, f), e=e, f=f)), "equal")
    if kind == "iso-total":
        n = _draw(rng, 48, fits)
        cells = [
            _count_op(rng, "iso-ef", field, tame_ref(e, n // e), e=e, f=n // e)
            for e in divisors(n)
        ]
        return Group((_count_op(rng, kind, field, n=n), *cells), "sum")
    if kind == "cyclic-total":
        d = rng.randint(1, 48)
        cells = [_count_op(rng, "cyclic-ef", field, e=e, f=d // e) for e in divisors(d)]
        return Group((_count_op(rng, kind, field, d=d), *cells), "sum")
    e, f = rng.randint(1, 16), rng.randint(1, 16)
    if kind == "krasner":
        # Inside a fixed closure there are exactly e tamely ramified
        # extensions with ramification e and inertia f.
        return Group((_count_op(rng, kind, field, e if e % p else None, e=e, f=f),))
    return Group((_count_op(rng, kind, field, e=e, f=f),))


def queries(rng, workdir, pass_index=0) -> list[Group]:
    qp_fields = [Field(("--qp", str(p)), p, 1, None) for p in (2, 3, 5, 7)]
    profile_fields = write_profiles(workdir)
    groups = [Group((Op(tuple(argv.split()), want),)) for argv, want in GOLDENS]
    seen = {op.argv for group in groups for op in group.ops}
    for j in range(QUERY_GROUPS):
        kind = COUNT_KINDS[j % len(COUNT_KINDS)]
        # Redraw a group that repeats an invocation of this pass, so that
        # no call can reuse a result an earlier call left behind.
        while True:
            group = _query_group(rng, kind, qp_fields, profile_fields)
            argvs = {op.argv for op in group.ops}
            if not argvs & seen:
                break
        seen |= argvs
        groups.append(group)
    return groups


# ---------------------------------------------------------------- table

STRATA = 4
# A table's size stratum is cut into four slices, and pass k draws from
# slice SUB_ORDER[k % 4], so that the first four passes of a run cover
# the whole range in even steps whatever the seed, and the first two and
# the first three passes have their sizes centred alike.
SUB_ORDER = (0, 2, 1, 3)


def _stratum(rng, j, lo, hi, sub=0, slices=1) -> int:
    """A seeded value in the sub-th of `slices` equal parts of the j-th of
    STRATA equal slices of [lo, hi).  One draw per slice keeps the total
    cost of a pass alike from pass to pass, and the draws fill the whole
    range, so the op costs have no gap for a median to fall into.  A part
    narrower than one value gives its lower end."""
    cuts = STRATA * slices
    k = j * slices + sub
    start = lo + (hi - lo) * k // cuts
    return rng.randrange(start, max(start + 1, lo + (hi - lo) * (k + 1) // cuts))


def table(rng, workdir=None, pass_index=0) -> list[Group]:
    sub = SUB_ORDER[pass_index % len(SUB_ORDER)]

    def size(j, lo, hi):
        return _stratum(rng, j, lo, hi, sub, len(SUB_ORDER))

    groups = []
    for j in range(STRATA):
        fmt = ("csv", "json")[j % 2]
        for p in ("2", "3"):
            for degree_fmt in ("csv", "json"):
                n_max = size(j, 60, 121)
                argv = ("table", "--qp", p, "--n-max", str(n_max), "--format", degree_fmt)
                groups.append(Group((Op(argv),)))
            long_side, short_side = size(j, 60, 121), 3 + (j + pass_index) % 4
            e_max, f_max = (long_side, short_side) if j % 2 else (short_side, long_side)
            argv = ("table", "--qp", p, "--e-max", str(e_max), "--f-max", str(f_max), "--format", fmt)
            groups.append(Group((Op(argv),)))
        n_max = size(j, 12, 25)
        argv = ("table", "--qp", "1000003", "--n-max", str(n_max), "--format", fmt)
        groups.append(Group((Op(argv),)))
    return groups


# ---------------------------------------------------------------- hard


def _prime_with_root(rng, j, lo, hi, g) -> int:
    """A prime in the j-th stratum of [lo, hi) that has g as a primitive
    root, so the order of g modulo it (the linear loop) is maximal."""
    q = next_prime(_stratum(rng, j, lo, hi))
    while not is_primitive_root(g, q):
        q = next_prime(q + 1)
    return q


def hard(rng, workdir=None, pass_index=0) -> list[Group]:
    qp2 = Field(("--qp", "2"), 2, 1, None)
    qp3 = Field(("--qp", "3"), 3, 1, None)
    groups = []
    for j in range(STRATA):
        e = _prime_with_root(rng, j, 1_000_000, 1_050_000, 2)
        # e does not divide 2^1 - 1, so no cyclic extension has this (e, f).
        groups.append(Group((_count_op(rng, "cyclic-ef", qp2, 0, e=e, f=1),)))
        e = _prime_with_root(rng, j, 1_000_000, 1_050_000, 3)
        groups.append(Group((_count_op(rng, "iso-ef", qp3, tame_classes(3, 1, e, 1), 0, e=e, f=1),)))
        e, f = rng.choice((2, 4, 5, 7, 8)), _stratum(rng, j, 95_000, 105_000)
        groups.append(Group((_count_op(rng, "tame", qp3, tame_classes(3, 1, e, f), 0, e=e, f=f),)))
        # p near 10^11, not 10^12: trial division up to sqrt(p) then costs
        # about as much as the other kinds, so no kind sits alone at the
        # top of the cost range, where the tail percentile would jump
        # between kinds as the number of samples in a run varies.
        big = next_prime(_stratum(rng, j, 10**11, 105 * 10**9))
        e, f = rng.randint(1, 4), rng.randint(1, 4)
        field = Field(("--qp", str(big)), big, 1, None)
        groups.append(Group((_count_op(rng, "krasner", field, e, e=e, f=f),)))
        p, d = rng.choice((2, 3, 5, 7)), next_prime(_stratum(rng, j, 10**12, 105 * 10**10))
        # For a prime degree d not dividing p(p - 1), only the unramified
        # extension of degree d is cyclic.
        field = Field(("--qp", str(p)), p, 1, None)
        groups.append(Group((_count_op(rng, "cyclic-total", field, 1, d=d),)))
    return groups


# ---------------------------------------------------------------- selfcheck


def selfcheck(rng=None, workdir=None, pass_index=0) -> list[Group]:
    return [Group((Op(("selfcheck",)),))]


def build(name: str, seed: int, workdir, pass_index: int = 0) -> list[Group]:
    """The groups of one pass of the workload, drawn afresh for each pass
    from (seed, pass_index); profile files go to workdir."""
    generators = {"queries": queries, "table": table, "hard": hard, "selfcheck": selfcheck}
    return generators[name](random.Random(f"{name}:{seed}:{pass_index}"), workdir, pass_index)

# ---------------------------------------------------------------- checks

_DECIMAL = re.compile(r"\d+")
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _decimal(text, what) -> int:
    if not isinstance(text, str) or not _DECIMAL.fullmatch(text):
        raise Mismatch(f"{what} is not a decimal string: {text!r}")
    return int(text)


def _param(argv, name) -> int | None:
    flag = f"--{name}"
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def check_output(op: Op, stdout: str):
    """Parse and check one op's stdout; return its count, or None for ops
    that produce no single count.  Raises Mismatch, also for output that
    cannot be parsed."""
    command = op.argv[0]
    try:
        if command == "count":
            value = _check_count(op.argv, stdout)
        elif command == "table":
            value = _check_table(op.argv, stdout)
        else:
            value = _check_selfcheck(stdout)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise Mismatch(f"{' '.join(op.argv)}: malformed output: {type(exc).__name__}: {exc}") from None
    if op.expect is not None and value != op.expect:
        raise Mismatch(f"{' '.join(op.argv)}: got {value}, expected {op.expect}")
    return value


def _check_count(argv, stdout) -> int:
    kind = argv[1]
    if "--json" in argv:
        payload = json.loads(stdout)
        if payload.get("query", {}).get("kind") != kind:
            raise Mismatch(f"{' '.join(argv)}: query echo {payload.get('query')!r}")
        value = _decimal(payload.get("value"), "value")
        records = payload.get("breakdown", [])
        terms = [record.get("term") for record in records]
    else:
        lines = stdout.splitlines()
        if not lines:
            raise Mismatch(f"{' '.join(argv)}: empty output")
        value = _decimal(lines[-1], "value")
        terms = [dict(part.split("=", 1) for part in line.split()).get("term") for line in lines[:-1]]
    if "--breakdown" in argv:
        for term in terms:
            if not isinstance(term, str) or not _RATIONAL.fullmatch(term):
                raise Mismatch(f"{' '.join(argv)}: malformed term {term!r}")
        scale = _param(argv, "n") if kind == "iso-total" else _param(argv, "f")
        if sum(map(Fraction, terms)) != value * scale:
            raise Mismatch(f"{' '.join(argv)}: summands do not re-sum to {value} * {scale}")
    return value


def _table_sections(argv, stdout):
    """(cells, totals) as lists of dicts of ints, from csv or json output."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        payload = json.loads(stdout)
        sections = [payload.get("cells", []), payload.get("totals", [])]
        out = []
        for rows in sections:
            parsed = []
            for row in rows:
                record = {}
                for key, val in row.items():
                    if key in ("e", "f", "n"):
                        if not isinstance(val, int):
                            raise Mismatch(f"{' '.join(argv)}: {key} = {val!r} is not an integer")
                        record[key] = val
                    else:
                        record[key] = _decimal(val, key)
                parsed.append(record)
            out.append(parsed)
        return out
    blocks = stdout.rstrip("\n").split("\n\n")
    out = []
    for block in blocks + [""] * (2 - len(blocks)):
        lines = block.splitlines()
        if not lines:
            out.append([])
            continue
        header = lines[0].split(",")
        out.append([dict(zip(header, (_decimal(v, "csv field") for v in line.split(",")))) for line in lines[1:]])
    return out


def _check_table(argv, stdout) -> None:
    where = " ".join(argv)
    p = _param(argv, "qp")
    n_max = _param(argv, "n-max")
    cells, totals = _table_sections(argv, stdout)
    if n_max is not None:
        keys = [(e, n // e) for n in range(1, n_max + 1) for e in divisors(n)]
    else:
        keys = [(e, f) for e in range(1, _param(argv, "e-max") + 1) for f in range(1, _param(argv, "f-max") + 1)]
    if [(c["e"], c["f"]) for c in cells] != keys:
        raise Mismatch(f"{where}: cell keys differ from the requested range")
    by_degree = {}
    for c in cells:
        e, f, classes, fields = c["e"], c["f"], c["classes"], c["krasner"]
        if not classes <= fields <= e * f * classes:
            raise Mismatch(f"{where}: sandwich fails at (e={e}, f={f})")
        if e % p and (fields != e or classes != tame_classes(p, 1, e, f)):
            raise Mismatch(f"{where}: tame cell (e={e}, f={f}) gives {fields}, {classes}")
        by_degree[e * f] = by_degree.get(e * f, 0) + classes
    if n_max is None:
        if totals:
            raise Mismatch(f"{where}: rectangle mode printed totals")
        return None
    if [t["n"] for t in totals] != list(range(1, n_max + 1)):
        raise Mismatch(f"{where}: total rows differ from 1..{n_max}")
    golden = GOLDEN_TOTALS.get(p, {})
    for t in totals:
        n = t["n"]
        if not t["classes_total"] == t["classes_from_ef"] == by_degree[n] == golden.get(n, by_degree[n]):
            raise Mismatch(f"{where}: degree {n} totals disagree: {t}")
    return None


def _check_selfcheck(stdout) -> None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "selfcheck: all suites pass":
        raise Mismatch("selfcheck did not print 'selfcheck: all suites pass'")
    suites = lines[:-1]
    if len(suites) != 10 or not all(line.endswith("  ok") for line in suites):
        raise Mismatch(f"selfcheck suite lines: {suites!r}")
    return None


def check_group(group: Group, values) -> None:
    """Check the relation between a group's answers.  Raises Mismatch."""
    if group.relation == "equal" and len(set(values)) != 1:
        raise Mismatch(f"{[' '.join(op.argv) for op in group.ops]} disagree: {values}")
    if group.relation == "sum" and values[0] != sum(values[1:]):
        raise Mismatch(f"{' '.join(group.ops[0].argv)} = {values[0]}, parts sum to {sum(values[1:])}")
