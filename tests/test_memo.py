"""The profile's memo: each closed-form value is computed once per profile,
and sharing it changes no answer."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicount import arith, cli, counting, theorems
from padicount.cli import main
from padicount.errors import MagnitudeError
from padicount.profiles import BaseFieldProfile, CyclotomicDatum, _Memo, qp_profile


def _pairs(n):
    return [(e, n // e) for e in range(1, n + 1) if n % e == 0]


def _fresh(K):
    return BaseFieldProfile(K.p, K.e0, K.f0, K.cyclotomic)


def test_memo_leaves_construction_equality_hash_and_repr_alone():
    warm = qp_profile(3, 2)
    theorems.iso_count_total(warm, 9)
    cold = qp_profile(3, 2)
    assert warm._memo and not cold._memo
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    with pytest.raises(TypeError):
        BaseFieldProfile(3, 1, 1, (), {})


# degree mode's totals take gcd(h, p^F - 1); the rectangle has no totals
GCD_DISTINCT = {"table --qp 2 --n-max 60": 150, "table --qp 3 --e-max 40 --f-max 5": 0}
# the level sums (e, i, f1) that the cells of iso_count_ef share
LEVEL_SUMS = {"table --qp 2 --n-max 60": 439, "table --qp 3 --e-max 40 --f-max 5": 240}
# h2 | p^F - 1 asked at gcd(F, phi(h2)), and only where the delta layer is not 0
# (150 and 135 when asked at F itself, of every split)
DIVIDES_DISTINCT = {"table --qp 2 --n-max 60": 54, "table --qp 3 --e-max 40 --f-max 5": 82}


@pytest.mark.parametrize(
    "argv, sigma_distinct, delta_distinct",
    [
        # no sigma or delta of a summand whose delta layer is 0 (379, 150 and
        # 232 when those were evaluated too)
        ("table --qp 2 --n-max 60", 116, 207),
        ("table --qp 3 --e-max 40 --f-max 5", 144, 199),
    ],
)
def test_table_computes_each_closed_form_once(
    capsys, monkeypatch, argv, sigma_distinct, delta_distinct
):
    calls = {
        "sigma_krasner": [], "delta_count": [],
        "gcd_p_power_minus_one": [], "divides_p_power_minus_one": [],
    }
    for name, seen in calls.items():
        module = counting if name in ("sigma_krasner", "delta_count") else arith
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, seen=seen: seen.append(a) or real(*a)
        )
    calls["_level_sum"] = []
    real_level_sum = theorems._level_sum

    def level_sum(K, i, e, f1, bits):
        calls["_level_sum"].append((e, i, f1))
        return real_level_sum(K, i, e, f1, bits)

    monkeypatch.setattr(theorems, "_level_sum", level_sum)

    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    first = {name: list(seen) for name, seen in calls.items()}
    assert len(first["sigma_krasner"]) == len(set(first["sigma_krasner"])) == sigma_distinct
    assert len(first["delta_count"]) == len(set(first["delta_count"])) == delta_distinct
    gcds = first["gcd_p_power_minus_one"]
    assert len(gcds) == len(set(gcds)) == GCD_DISTINCT[argv]
    tests = first["divides_p_power_minus_one"]
    assert len(tests) == len(set(tests)) == DIVIDES_DISTINCT[argv]
    sums = first["_level_sum"]
    assert len(sums) == len(set(sums)) == LEVEL_SUMS[argv]

    # the memo lives with the invocation's profile: a second run starts cold
    for seen in calls.values():
        seen.clear()
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == out
    assert calls == first


def test_table_lists_the_divisors_of_each_argument_once_in_the_evaluators(capsys, monkeypatch):
    # the table's loops and the evaluators fetch each list through the
    # profile's memo (2710 calls before the memo, 270 before the table used it)
    real = arith.divisors
    calls = []
    monkeypatch.setattr(arith, "divisors", lambda n: calls.append(n) or real(n))
    assert main("table --qp 2 --n-max 90".split()) == 0
    capsys.readouterr()
    assert sorted(set(calls)) == list(range(1, 91))
    assert len(calls) == 90


def test_a_table_reads_the_bit_limit_once(capsys, monkeypatch):
    real = counting.magnitude_bits
    calls = []
    monkeypatch.setattr(counting, "magnitude_bits", lambda: calls.append(1) or real())
    assert main(["table", "--qp", "2", "--n-max", "30"]) == 0
    capsys.readouterr()
    # main's check of the limit is the one read; the table reuses it (253 reads
    # when each cell read it in krasner_count and again in iso_count_ef)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        "count iso-ef --qp 2 --e 4 --f 2", "count iso-total --qp 2 --n 8",
        "count krasner --qp 2 --e 4 --f 2", "count cyclic-ef --qp 2 --e 4 --f 2",
        "count cyclic-total --qp 2 --d 8", "count iso-ef --qp 2 --e 4 --f 2 --breakdown",
        "count iso-total --qp 2 --n 8 --breakdown",
    ],
)
def test_a_count_reads_the_bit_limit_once(capsys, monkeypatch, argv):
    # main's read is handed to the evaluator, which used to read the limit again
    real = counting.magnitude_bits
    calls = []
    monkeypatch.setattr(counting, "magnitude_bits", lambda: calls.append(1) or real())
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_selfcheck_reads_the_bit_limit_once(capsys, monkeypatch):
    # main's read is handed to every suite; each count in them read it again
    real = counting.magnitude_bits
    calls = []
    monkeypatch.setattr(counting, "magnitude_bits", lambda: calls.append(1) or real())
    assert main(["selfcheck", "--grid", "small"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_every_memo_entry_is_its_compute_of_its_key(capsys, monkeypatch):
    # a memo holds values of its compute and nothing else: no hand-filled
    # table, no placeholder, and no memo inside a key
    built = []
    monkeypatch.setattr(cli, "qp_profile", lambda *a: built.append(qp_profile(*a)) or built[-1])
    assert main(["table", "--qp", "2", "--n-max", "30"]) == 0
    capsys.readouterr()
    (K,) = built
    for name in ("_memo", "_bound"):  # K._memo[g] computes g(*args), K._bound[g] g(K, *args)
        memos = getattr(K, name)
        assert memos
        for g, memo in memos.items():
            assert type(memo) is _Memo
            if name == "_memo":
                assert memo.compute is g
            else:
                assert (memo.compute.func, memo.compute.args) == (g, (K,))
            for key, value in list(memo.items()):
                args = key if type(key) is tuple else (key,)
                assert not any(isinstance(a, _Memo) for a in args), (g, key)
                assert value == memo.compute(*args), (g, key)


def test_a_lookup_that_raises_stores_nothing_and_the_next_computes_again():
    K = qp_profile(2, 0)
    outcomes = [MagnitudeError("too large"), 7]

    def compute(a, b):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    memo = K._memo[compute]
    with pytest.raises(MagnitudeError):
        memo[1, 2]
    assert (1, 2) not in memo
    assert memo[1, 2] == 7
    assert memo[1, 2] == 7 and outcomes == []
    assert K._memo[compute] is memo
    assert K._memo[arith.euler_phi][12] == 4  # one argument is its own key


def test_a_lower_bit_limit_still_raises_on_a_warm_profile(monkeypatch):
    K = qp_profile(2, 5)
    expected = (
        counting.krasner_count(K, 8, 4),
        theorems.iso_count_ef(K, 8, 4),
        theorems.iso_count_total(K, 32),
    )
    monkeypatch.setenv(counting.MAX_BITS_ENV, "16")
    with pytest.raises(MagnitudeError):
        counting.krasner_count(K, 8, 4)
    with pytest.raises(MagnitudeError):
        theorems.iso_count_ef(K, 8, 4)
    with pytest.raises(MagnitudeError):
        theorems.iso_count_total(K, 32)
    monkeypatch.delenv(counting.MAX_BITS_ENV)
    assert (
        counting.krasner_count(K, 8, 4),
        theorems.iso_count_ef(K, 8, 4),
        theorems.iso_count_total(K, 32),
    ) == expected


def _table(K, n_max, start=0):
    cells = [pair for n in range(1, n_max + 1) for pair in _pairs(n)]
    cells = cells[start:] + cells[:start]
    values = {
        (e, f): (counting.krasner_count(K, e, f), theorems.iso_count_ef(K, e, f))
        for e, f in cells
    }
    totals = {n: theorems.iso_count_total(K, n) for n in range(1, n_max + 1)}
    return values, totals


def test_threads_sharing_a_profile_match_a_serial_run():
    serial = _table(qp_profile(2, 5), 40)
    shared = qp_profile(2, 5)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait()
        results[k] = _table(shared, 40, start=17 * k)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [serial] * 4


def test_threads_racing_on_the_rows_of_one_profile_match_fresh_profiles():
    # the counts of the cells (e, .) share the level sums of e, and counts
    # and breakdowns share the closed forms; each thread fills them in its
    # own order, switching as often as the interpreter allows
    cells = [(e, f) for e in (8, 12, 16, 24) for f in (1, 2, 3, 4, 6)]

    def both(K, cell):
        return theorems.iso_count_ef(K, *cell), theorems.iso_count_ef_terms(K, *cell)

    expected = {cell: both(qp_profile(2, 5), cell) for cell in cells}
    shared = qp_profile(2, 5)
    barrier = threading.Barrier(6)
    results = [None] * 6

    def work(k):
        barrier.wait()
        start = 7 * k % len(cells)
        order = cells[start:] + cells[:start]
        results[k] = {cell: both(shared, cell) for cell in order}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 6


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def valid_profiles(draw):
    """Any profile that passes validation, with p <= 7 and depth <= 2.

    Each step past level 1 has degree 1 or p: e_i*f_i divides
    p*e_{i-1}*f_{i-1}.  e0 is 1, 2 or 3 times the least value for which
    phi(p^i) | e0*e_i holds at every level."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    levels = []
    prev_e = prev_f = 1
    e0_step = 1
    for i in range(1, draw(st.integers(0, 2)) + 1):
        units = p ** (i - 1) * (p - 1)
        # level 1 may have any degree dividing p - 1; f = prev_f keeps every e drawn possible
        step = p * prev_e * prev_f if i > 1 else units
        e = draw(st.sampled_from([
            d for d in _divisors(units)
            if d % prev_e == 0 and (units // d) % prev_f == 0 and step % (d * prev_f) == 0
        ]))
        f = draw(st.sampled_from(
            [d for d in _divisors(units // e) if d % prev_f == 0 and step % (e * d) == 0]
        ))
        levels.append(CyclotomicDatum(i, e, f))
        prev_e, prev_f = e, f
        e0_step = math.lcm(e0_step, units // math.gcd(units, e))
    e0 = e0_step * draw(st.integers(1, 3))
    return BaseFieldProfile(p, e0, draw(st.integers(1, 2)), tuple(levels))


def _within_depth(K, n):
    s = 0
    while n % K.p == 0:
        n //= K.p
        s += 1
    return s <= K.depth


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_warm_profile_agrees_with_fresh_profiles(data):
    K = data.draw(valid_profiles())
    degrees = data.draw(st.lists(
        st.integers(1, 12).filter(lambda n: _within_depth(K, n)), min_size=1, max_size=4
    ))

    def values():
        return [
            (theorems.iso_count_total(K, n), [theorems.iso_count_ef(K, e, f) for e, f in _pairs(n)])
            for n in degrees
        ]

    cold = values()
    assert values() == cold  # now every term comes from the memo
    for n, (total, cells) in zip(degrees, cold):
        assert total == sum(cells)
        assert total == theorems.iso_count_total(_fresh(K), n)
        assert cells == [theorems.iso_count_ef(_fresh(K), e, f) for e, f in _pairs(n)]
