import argparse
import contextlib
import json
import math
import re
import shutil
import sys
import time
from pathlib import Path

import pytest
import sympy

from padicount import arith, cli, counting, selfcheck, theorems
from padicount.cli import main
from padicount.profiles import qp_profile
from padicount.selfcheck import SuiteResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_iso_ef(capsys):
    code, out, _ = run_cli(capsys, "count", "iso-ef", "--qp", "3", "--e", "3", "--f", "1")
    assert code == 0
    assert out.strip() == "9"


def test_count_iso_total_json(capsys):
    code, out, _ = run_cli(capsys, "count", "iso-total", "--qp", "2", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "7"
    assert payload["query"] == {"kind": "iso-total", "qp": 2, "n": 2}


def test_count_krasner(capsys):
    code, out, _ = run_cli(capsys, "count", "krasner", "--qp", "2", "--e", "2", "--f", "1")
    assert code == 0
    assert out.strip() == "6"


def test_count_cyclic_kinds(capsys):
    code, out, _ = run_cli(capsys, "count", "cyclic-ef", "--qp", "2", "--e", "2", "--f", "1")
    assert (code, out.strip()) == (0, "6")
    code, out, _ = run_cli(capsys, "count", "cyclic-total", "--qp", "2", "--d", "2")
    assert (code, out.strip()) == (0, "7")
    code, out, _ = run_cli(capsys, "count", "tame", "--qp", "5", "--e", "2", "--f", "1")
    assert (code, out.strip()) == (0, "2")


def test_count_breakdown_terms_resum(capsys):
    code, out, _ = run_cli(
        capsys, "count", "iso-ef", "--qp", "2", "--e", "2", "--f", "1", "--breakdown", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [record["term"] for record in payload["breakdown"]] == ["1", "3", "2", "0"]
    assert sum(int(r["term"]) for r in payload["breakdown"]) == int(payload["value"]) * 1


def test_count_rejects_breakdown_for_plain_kinds(capsys):
    code, _, err = run_cli(
        capsys, "count", "krasner", "--qp", "2", "--e", "2", "--f", "1", "--breakdown"
    )
    assert code == 2
    assert "breakdown" in err


def test_json_output_roundtrips_byte_identically(capsys):
    code, out, _ = run_cli(
        capsys, "count", "iso-total", "--qp", "2", "--n", "8", "--breakdown", "--json"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) == out.strip()


def test_identical_invocations_identical_bytes(capsys):
    argv = ("table", "--qp", "2", "--n-max", "6", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_count_exit_codes_for_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "count", "iso-ef", "--qp", "9", "--e", "2", "--f", "1")
    assert code == 2 and "prime" in err
    code, _, err = run_cli(capsys, "count", "tame", "--qp", "3", "--e", "6", "--f", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "iso-ef", "--qp", "3", "--e", "3", "--f", "1", "--n", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "iso-total", "--qp", "3")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("p", ["9", "4", "1", "0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        "count iso-ef --e 2 --f 1",
        "count iso-total --n 4",
        "count krasner --e 2 --f 1",
        "count cyclic-ef --e 2 --f 1",
        "count cyclic-total --d 4",
        "count tame --e 1 --f 2",
        "table --n-max 4",
        "table --e-max 2 --f-max 2",
    ],
)
def test_every_command_refuses_a_qp_that_is_not_prime(capsys, argv, p):
    # p is checked once, where the profile is built; p < 2 must not reach
    # a loop that divides by p
    code, out, err = run_cli(capsys, *argv.split(), "--qp", p)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("p", ["0", "1", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        "count iso-ef --e 4 --f 1",
        "count iso-total --n 4",
        "count krasner --e 2 --f 1",
        "count cyclic-ef --e 2 --f 1",
        "count cyclic-total --d 4",
        "count tame --e 1 --f 2",
        "table --n-max 4",
        "table --e-max 4 --f-max 2",
    ],
)
def test_a_qp_below_two_gets_the_profile_message_from_every_command(capsys, argv, p):
    # no depth is derived from p, and no level built, before the profile refuses p
    code, out, err = run_cli(capsys, *argv.split(), "--qp", p)
    assert (code, out, err) == (2, "", f"error: invalid profile: p = {p} is not prime\n")


@pytest.mark.parametrize("n_max", ["6", "24"])
def test_table_checks_primality_once_whatever_its_size(capsys, monkeypatch, n_max):
    real = arith.is_prime
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    code, _, _ = run_cli(capsys, "table", "--qp", "1000003", "--n-max", n_max)
    assert code == 0
    assert calls == [1000003]


@pytest.mark.parametrize(
    "argv, value",
    [
        ("count krasner --qp 2305843009213693951 --e 1 --f 1", "1"),
        ("count cyclic-ef --qp 2 --e 1000000007 --f 1", "0"),
        ("count iso-ef --qp 3 --e 1000000007 --f 1", "1"),
        ("count tame --qp 3 --e 2 --f 10000000", "2"),
    ],
)
def test_worst_case_probes_finish_with_their_values(capsys, argv, value):
    # each once hung in a loop linear or square-root in its input
    code, out, _ = run_cli(capsys, *argv.split())
    assert (code, out.strip()) == (0, value)


@pytest.mark.parametrize(
    "argv, value",
    [
        ("count iso-ef --qp 3 --e 10000000000000061 --f 1", "1"),
        ("count tame --qp 3 --e 2 --f 10000000000000061", "2"),
        ("count iso-total --qp 3 --n 10000000000000061", "2"),
    ],
)
def test_divisor_lists_of_a_large_prime_come_from_its_factorisation(capsys, argv, value):
    # a square-root scan for the divisors took 12 to 27 s on these
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv.split())
    assert (code, out.strip()) == (0, value)
    assert time.perf_counter() - start < 1.0


def test_divisor_lists_obey_the_factoring_bound(capsys):
    code, out, err = run_cli(capsys, "count", "iso-ef", "--qp", "3", "--e", "1000036000099", "--f", "1")
    assert (code, out) == (3, "")
    assert "no prime factor up to" in err


def test_factoring_past_the_trial_bound_exits_3(capsys):
    d = str(1_000_000_007 * 1_000_000_009)
    code, out, err = run_cli(capsys, "count", "cyclic-total", "--qp", "2", "--d", d)
    assert (code, out) == (3, "")
    assert "no prime factor up to" in err


def test_prime_past_the_miller_rabin_bound_exits_3(capsys):
    p = str(sympy.nextprime(arith.MR_BOUND))  # prime, yet refused rather than guessed
    code, out, err = run_cli(capsys, "count", "krasner", "--qp", p, "--e", "1", "--f", "1")
    assert (code, out) == (3, "")
    assert "Miller-Rabin" in err


def test_tame_breakdown_bytes(capsys):
    code, out, _ = run_cli(capsys, "count", "tame", "--qp", "7", "--e", "4", "--f", "6", "--breakdown")
    assert code == 0
    assert out == "".join(f"i={i}  term={4 if i % 2 == 0 else 2}\n" for i in range(6)) + "3\n"
    code, out, _ = run_cli(
        capsys, "count", "tame", "--qp", "2", "--e", "3", "--f", "4", "--breakdown", "--json"
    )
    assert code == 0
    records = ",\n".join(
        f'    {{\n      "i": {i},\n      "term": "{t}"\n    }}' for i, t in enumerate("3131")
    )
    assert out == (
        '{\n  "query": {\n    "kind": "tame",\n    "qp": 2,\n    "e": 3,\n    "f": 4\n  },\n'
        f'  "value": "2",\n  "breakdown": [\n{records}\n  ]\n}}\n'
    )


def test_tame_breakdown_past_the_summand_bound_exits_3(capsys):
    argv = ("count", "tame", "--qp", "3", "--e", "2", "--f", "1000000")
    assert run_cli(capsys, *argv)[:2] == (0, "2\n")
    code, out, err = run_cli(capsys, *argv, "--breakdown", "--json")
    assert (code, out) == (3, "")
    assert "more than 100000" in err


@pytest.mark.parametrize(
    "kind, params, count",
    [
        # e and f each the product of 9 odd primes: 512 * 512 summands at level 0
        ("iso-ef", {"e": sympy.primerange(3, 30), "f": sympy.primerange(31, 68)}, 262144),
        # n the product of 11 odd primes has 3^11 summands; the refusal comes on
        # the cofactor d whose splits take the running count past the bound
        ("iso-total", {"n": sympy.primerange(3, 38)}, 100032),
    ],
)
def test_a_general_sum_past_the_summand_bound_exits_3(capsys, kind, params, count):
    argv = ["count", kind, "--qp", "2"]
    for name, primes in params.items():
        argv += [f"--{name}", str(math.prod(primes))]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"error: iso_count_\w+\(.*\): {count} summands, more than 100000\n", err)


def test_consistency_failure_exits_4(capsys, monkeypatch):
    real_phi = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 2 if n == 2 else real_phi(n))
    code, out, err = run_cli(capsys, "count", "iso-ef", "--qp", "5", "--e", "1", "--f", "2")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal consistency failure: ")


def test_tame_breakdown_cross_checks_the_divisor_sum(capsys, monkeypatch):
    real_phi = arith.euler_phi
    # phi(4) = 6 corrupts the divisor sum only, and keeps it divisible by f = 4
    monkeypatch.setattr(arith, "euler_phi", lambda n: 6 if n == 4 else real_phi(n))
    argv = ("count", "tame", "--qp", "2", "--e", "3", "--f", "4")
    assert run_cli(capsys, *argv)[:2] == (0, "3\n")
    code, out, err = run_cli(capsys, *argv, "--breakdown")
    assert (code, out) == (4, "")
    assert "divisor-sum 12 != gcd-sum 8" in err


def test_magnitude_limit_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "count", "krasner", "--qp", "2", "--e", str(1 << 25), "--f", "1"
    )
    assert code == 3
    assert "magnitude" in err


def test_profile_source(capsys, tmp_path):
    profile = {
        "p": 2,
        "e0": 1,
        "f0": 1,
        "cyclotomic": [{"i": 1, "e": 1, "f": 1}, {"i": 2, "e": 2, "f": 1}],
    }
    path = tmp_path / "q2.json"
    path.write_text(json.dumps(profile), encoding="utf-8")
    code, out, _ = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "2", "--f", "1")
    assert (code, out.strip()) == (0, "6")


def test_profile_too_short_exit_code(capsys, tmp_path):
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps({"p": 2, "e0": 1, "f0": 1, "cyclotomic": []}), encoding="utf-8")
    code, _, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "2", "--f", "1")
    assert code == 2
    assert "too short" in err


@pytest.mark.parametrize(
    "query", [("iso-ef", "--e", "16", "--f", "1"), ("iso-total", "--n", "16")], ids=["iso-ef", "iso-total"]
)
def test_both_evaluators_refuse_a_too_short_profile_at_level_v_p(capsys, query):
    # v_2(16) = 4, so both name level 4, not the first level they would read
    path = Path(__file__).parent / "data" / "shallow_q2.json"
    code, out, err = run_cli(capsys, "count", query[0], "--profile", str(path), *query[1:])
    assert (code, out) == (2, "")
    assert err == "error: profile too short: level 4 required, profile has depth 0\n"


@pytest.mark.parametrize("limit", [None, "3"], ids=["unset", "bits-3"])
def test_table_refuses_a_too_short_profile_before_its_first_cell(capsys, monkeypatch, limit):
    # v_2(16) = 4 and the profile has depth 3; the depth is read before any
    # cell, so the refusal is the same with or without a bit limit
    def no_cell(*args):
        raise AssertionError(f"cell {args[1:3]} evaluated")

    monkeypatch.setattr(counting, "krasner_count", no_cell)
    monkeypatch.setattr(theorems, "iso_count_ef", no_cell)
    if limit is None:
        monkeypatch.delenv(counting.MAX_BITS_ENV, raising=False)
    else:
        monkeypatch.setenv(counting.MAX_BITS_ENV, limit)
    path = Path(__file__).parent / "data" / "unramified_quadratic_q2.json"
    code, out, err = run_cli(capsys, "table", "--profile", str(path), "--n-max", "24")
    assert (code, out) == (2, "")
    assert err == "error: profile too short: level 4 required, profile has depth 3\n"


@pytest.mark.parametrize(
    "query",
    [("cyclic-ef", "--e", "3", "--f", "1"), ("cyclic-total", "--d", "2")],
    ids=["cyclic-ef", "cyclic-total"],
)
@pytest.mark.parametrize(
    "tower", [[], [{"i": 1, "e": 1, "f": 1}]], ids=["depth-0", "depth-1-trivial"]
)
def test_profile_too_short_for_xi_exit_code(capsys, tmp_path, query, tower):
    # no nontrivial level bounds xi, so the cyclic counts refuse the profile,
    # even where the count would be 0 (3 does not divide 2^1 - 1)
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps({"p": 2, "e0": 1, "f0": 1, "cyclotomic": tower}), encoding="utf-8")
    code, out, err = run_cli(capsys, "count", query[0], "--profile", str(path), *query[1:])
    assert (code, out) == (2, "")
    assert "too short" in err


def test_invalid_profile_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    bad = {"p": 3, "e0": 1, "f0": 1, "cyclotomic": [{"i": 1, "e": 5, "f": 1}]}
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "3", "--f", "1")
    assert code == 2
    assert "invalid profile" in err


def test_misspelt_profile_key_exit_code(capsys, tmp_path):
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps({"p": 3, "e0": 1, "f0": 1, "cyclotomics": []}), encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "3", "--f", "1")
    assert (code, out, err) == (2, "", "error: malformed profile: unknown key 'cyclotomics'\n")


def test_malformed_profile_json_exit_code(capsys, tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"p": 3,', encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "1", "--f", "1")
    assert (code, out) == (2, "")
    assert "malformed profile JSON" in err


def test_deeply_nested_profile_json_exits_2(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "1", "--f", "1")
    assert (code, out) == (2, "")
    assert "malformed profile JSON" in err


def test_a_tower_no_field_has_exits_2(capsys, tmp_path):
    # level 1 puts zeta_3 in Q_3 itself, but Q_3(zeta_3) is ramified over
    # Q_3: phi(3) = 2 does not divide e0*e_1 = 1
    tower = [{"i": 1, "e": 1, "f": 1}, {"i": 2, "e": 6, "f": 1}]
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps({"p": 3, "e0": 1, "f0": 1, "cyclotomic": tower}), encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "cyclic-total", "--profile", str(path), "--d", "3")
    assert (code, out) == (2, "")
    assert "phi(p^1) does not divide e0*e_1" in err


def test_a_deep_failing_level_is_reported_without_printing_p_to_its_depth(capsys, tmp_path):
    # p^1000 has 11,000 digits, past the limit on converting an int to text
    tower = [{"i": i, "e": 1, "f": 1} for i in range(1, 1001)]
    tower.append({"i": 1001, "e": 1_000_003, "f": 1})
    path = tmp_path / "deep.json"
    data = {"p": 100_000_000_003, "e0": 1, "f0": 1, "cyclotomic": tower}
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "1", "--f", "1")
    assert (code, out) == (2, "")
    assert "level 1001: e_1001*f_1001 does not divide |(Z/p^1001)^*|" in err


def test_coerced_profile_fields_exit_code(capsys, tmp_path):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"p": 3.9, "e0": 1.5, "f0": True, "cyclotomic": []}), encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "iso-ef", "--profile", str(path), "--e", "2", "--f", "1")
    assert (code, out) == (2, "")
    assert "must be an integer" in err


@pytest.mark.parametrize("argv", [
    "count iso-ef --qp 2 --e 4 --f 1", "count --help", "selfcheck --grid tiny"
])
def test_a_run_reads_the_terminal_width_once(capsys, monkeypatch, argv):
    # every parser shares one formatter class; argparse's default one reads
    # the width again for each argument it is given
    real = shutil.get_terminal_size
    calls = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(1) or real(*a))
    with contextlib.suppress(SystemExit):
        main(argv.split())
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv, parsers", [
    ("count iso-ef --qp 2 --e 4 --f 1", 1),
    ("table --qp 2 --n-max 2", 1),
    ("selfcheck --grid tiny", 1),
    ("count table --qp 2", 1),
    ("--help", 4),
    ("", 4),
    ("foo", 4),
    ("count iso-ef --qp 2 --e 4 --f 1 extra", 5),
])
def test_a_run_builds_a_parser_only_for_each_command_argv_names(
    capsys, monkeypatch, argv, parsers
):
    # a line that starts with a command's name builds only that command's
    # parser; any other, or one with a token left over, builds the whole
    # parser too: the top level and one per command
    real = argparse.ArgumentParser.__init__
    calls = []
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    with contextlib.suppress(SystemExit):
        main(argv.split())
    capsys.readouterr()
    assert len(calls) == parsers


def test_table_csv_degree_mode(capsys):
    code, out, _ = run_cli(capsys, "table", "--qp", "2", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e,f,krasner,classes"
    assert "2,1,6,6" in lines
    assert "1,2,1,1" in lines
    total_header = lines.index("n,classes_total,classes_from_ef")
    assert "2,7,7" in lines[total_header:]


def test_table_trivial_degree(capsys):
    code, out, _ = run_cli(capsys, "table", "--qp", "5", "--n-max", "1", "--format", "csv")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines == ["e,f,krasner,classes", "1,1,1,1", "n,classes_total,classes_from_ef", "1,1,1"]


def test_table_totals_q3(capsys):
    code, out, _ = run_cli(capsys, "table", "--qp", "3", "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    totals = {t["n"]: t for t in payload["totals"]}
    assert totals[3]["classes_total"] == "10"
    assert totals[3]["classes_from_ef"] == "10"


def test_table_rectangle_mode(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--qp", "2", "--e-max", "2", "--f-max", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert "totals" not in payload
    cells = {(c["e"], c["f"]): c for c in payload["cells"]}
    assert cells[(2, 1)]["classes"] == "6"
    assert len(cells) == 4


def test_table_requires_exactly_one_range(capsys):
    code, _, err = run_cli(capsys, "table", "--qp", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--qp", "2", "--n-max", "2", "--e-max", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--qp", "2", "--e-max", "2")
    assert code == 2


def test_table_out_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "table", "--qp", "2", "--n-max", "2", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert "2,1,6,6" in out_path.read_text(encoding="utf-8")


def test_selfcheck_small(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--grid", "small")
    assert code == 0
    assert "all suites pass" in out
    for suite in ("lemma", "pi-oracle", "dual-oracle", "sandwich", "golden"):
        assert suite in out


def test_selfcheck_fault_injection(capsys, monkeypatch):
    real = counting.delta_count

    def corrupted(p, m, s, i, bits=None):
        value = real(p, m, s, i, bits)
        return value + 1 if (p, m, s, i) == (2, 1, 1, 1) else value

    monkeypatch.setattr(counting, "delta_count", corrupted)
    code, out, _ = run_cli(capsys, "selfcheck", "--grid", "small")
    assert code == 1
    assert "FAILED" in out
    assert "delta" in out  # the counterexample names the corrupted row
    assert "first counterexample" in out


def test_selfcheck_table_cap(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--grid", "small", "--max-table-order", "6")
    assert code == 0


def test_selfcheck_says_skipped_for_a_suite_that_ran_no_check(capsys):
    # every pi-oracle group has order above 1, so the suite checks nothing
    code, out, _ = run_cli(
        capsys, "selfcheck", "--grid", "small", "--max-abelian-order", "1", "--max-table-order", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert "pi-oracle                 0 checks  skipped" in lines
    assert "lemma                     1 checks  ok" in lines
    assert lines[-1] == "selfcheck: all suites pass"
    assert sum(line.endswith("skipped") for line in lines) == 1


@pytest.mark.parametrize("flag", ["--max-abelian-order", "--max-table-order"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_selfcheck_refuses_a_cap_below_one(capsys, flag, cap):
    code, out, err = run_cli(capsys, "selfcheck", "--grid", "small", flag, cap)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 1\n"


@pytest.mark.parametrize("flags, caps", [
    ([], {}),
    (["--max-table-order", "6"], {"max_table_order": 6}),
    (["--max-abelian-order", "10", "--max-table-order", "6"], {"max_abelian_order": 10, "max_table_order": 6}),
])
def test_selfcheck_passes_only_the_caps_it_is_given(capsys, monkeypatch, flags, caps):
    # an unset cap is left to run_selfcheck's own default; main's read of
    # the bit limit is always passed on
    monkeypatch.delenv("PADICOUNT_MAX_BITS", raising=False)
    passed = []
    # _cmd_selfcheck looks run_selfcheck up on its module when it runs
    monkeypatch.setattr(
        selfcheck, "run_selfcheck", lambda **kwargs: passed.append(kwargs) or [SuiteResult("stub")]
    )
    code, out, _ = run_cli(capsys, "selfcheck", "--grid", "small", *flags)
    assert (code, passed) == (0, [{"grid": "small", "bits": counting.DEFAULT_MAX_BITS, **caps}])
    assert out.endswith("selfcheck: all suites pass\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_exits_4_when_the_total_disagrees_with_its_cells(capsys, monkeypatch, fmt):
    real = theorems.iso_count_total
    monkeypatch.setattr(theorems, "iso_count_total", lambda *args: real(*args) + 1)
    code, out, err = run_cli(capsys, "table", "--qp", "2", "--n-max", "4", "--format", fmt)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal consistency failure: degree 1: total route gives 2,")


@pytest.mark.parametrize("limit", ["abc", "0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        "count iso-ef --qp 3 --e 2 --f 1",
        "count iso-total --qp 3 --n 4",
        "count krasner --qp 2 --e 2 --f 1",
        "count cyclic-ef --qp 2 --e 1 --f 1",
        "count cyclic-total --qp 3 --d 5",
        "count tame --qp 5 --e 2 --f 1",
        "table --qp 2 --n-max 4",
        "selfcheck --grid small",
    ],
)
def test_every_command_refuses_a_malformed_bit_limit(capsys, monkeypatch, argv, limit):
    # the limit is checked at the boundary, not only when a power happens to be computed
    monkeypatch.setenv(counting.MAX_BITS_ENV, limit)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: {counting.MAX_BITS_ENV} must be a positive integer, got {limit!r}\n"


# "9" * 5000 is past int()'s default limit of 4300 digits, where it raises ValueError
@pytest.mark.parametrize("limit", [" 1_000 ", "1_000", "+64", "\uff16\uff14", "64\n", "9" * 5000])
def test_a_bit_limit_that_int_would_coerce_is_refused(capsys, monkeypatch, limit):
    monkeypatch.setenv(counting.MAX_BITS_ENV, limit)
    code, out, err = run_cli(capsys, "count", "krasner", "--qp", "2", "--e", "2", "--f", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {counting.MAX_BITS_ENV} must be a positive integer, got {limit!r}\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        ("count iso-ef --qp 3 --e {} --f 1", "1_0"),
        ("count iso-ef --qp 3 --e 3 --f {}", " 1"),
        ("count krasner --qp {} --e 1 --f 1", "\uff12"),
        ("count iso-total --qp 2 --n {}", "+4"),
        ("count cyclic-total --qp 2 --d {}", "\u0663"),
        ("table --qp 2 --n-max {}", "4 "),
        ("table --qp 3 --e-max 2 --f-max {}", "2.0"),
        ("selfcheck --grid small --max-table-order {}", "1_0"),
        ("count iso-ef --qp 3 --e {} --f 1", "9" * 5000),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, bad):
    # int() alone would run each of these as the number it resembles
    with pytest.raises(SystemExit) as refused:
        main([bad if word == "{}" else word for word in argv.split()])
    captured = capsys.readouterr()
    assert (refused.value.code, captured.out) == (2, "")
    assert f"invalid int value: {bad!r}" in captured.err


def test_a_negative_option_keeps_its_range_message(capsys):
    code, out, err = run_cli(capsys, "count", "iso-ef", "--qp", "3", "--e", "-3", "--f", "1")
    assert (code, out, err) == (2, "", "error: --e must be >= 1\n")


@contextlib.contextmanager
def _int_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _longest_number(text):
    return max(len(run) for run in re.findall(r"\d+", text))


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_count_past_the_int_string_limit_prints_in_full(capsys, json_flag):
    # 4939 digits: inside the bits guard, past str(int)'s default limit of 4300
    argv = ("count", "krasner", "--qp", "2", "--e", "4096", "--f", "4", *json_flag)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert _longest_number(out) == 4939
    with _int_str_digits(0):
        assert run_cli(capsys, *argv) == (0, out, "")
        value = counting.krasner_count(qp_profile(2, 0), 4096, 4)
        assert (json.loads(out)["value"] if json_flag else out.strip()) == str(value)


def test_a_refused_power_past_the_int_string_limit_is_named_without_a_traceback(capsys):
    # two valid 4000-digit inputs; sigma_krasner's first refused power is 2^(e*f/2),
    # whose exponent has 7999 digits
    e, f = 2 * 10**3999, 10**3999
    code, out, err = run_cli(capsys, "count", "krasner", "--qp", "2", "--e", str(e), "--f", str(f))
    assert (code, out) == (3, "")
    with _int_str_digits(0):
        limit = counting.DEFAULT_MAX_BITS
        assert err == f"error: 2^{e * f // 2} exceeds the magnitude limit of {limit} bits\n"


def test_a_divisor_list_past_the_bound_is_refused_without_a_traceback(capsys):
    f = math.prod(sympy.primerange(2, 72))  # the first 20 primes: 2^20 divisors
    code, out, err = run_cli(capsys, "count", "tame", "--qp", "101", "--e", "2", "--f", str(f))
    assert (code, out) == (3, "")
    assert err == "error: divisors: n has 1048576 divisors, more than 100000\n"


@pytest.mark.parametrize(
    "argv",
    [
        "count iso-ef --qp 2 --e 4096 --f 4 --breakdown",
        "count iso-ef --qp 2 --e 4096 --f 4 --breakdown --json",
        "table --qp 2 --e-max 4 --f-max 800",
        "table --qp 2 --e-max 4 --f-max 800 --format json",
    ],
)
def test_summands_and_table_cells_ignore_the_int_string_limit(capsys, argv):
    with _int_str_digits(640):  # the least limit str(int) allows
        code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert _longest_number(out) > 640
    with _int_str_digits(0):
        assert run_cli(capsys, *argv.split()) == (0, out, "")
