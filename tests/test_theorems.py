from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_memo import valid_profiles

from padicount import arith, counting, theorems
from padicount.counting import cyclic_count_ef, cyclic_count_total, krasner_count
from padicount.errors import ConsistencyError, DomainError, MagnitudeError, ProfileTooShortError
from padicount.profiles import BaseFieldProfile, CyclotomicDatum, load_profile, qp_profile
from padicount.theorems import (
    MAX_SUMMANDS,
    iso_count_ef,
    iso_count_ef_terms,
    iso_count_total,
    iso_count_total_terms,
    tame_iso_count,
    tame_iso_count_terms,
)


def test_unramified_classes_are_unique():
    for p in (2, 3, 5):
        K = qp_profile(p, 0)
        for f in range(1, 6):
            assert iso_count_ef(K, 1, f) == 1


def test_q2_ramified_quadratics():
    value, terms = iso_count_ef_terms(qp_profile(2, 1), 2, 1)
    assert value == 6
    # fixed iteration order: (i, e1, e2) = (0,1,2), (0,2,1), (1,1,2), (1,2,1)
    assert [(t.i, t.e1, t.e2) for t in terms] == [(0, 1, 2), (0, 2, 1), (1, 1, 2), (1, 2, 1)]
    assert [t.term for t in terms] == [1, 3, 2, 0]


def test_q3_ramified_cubics():
    # chain identity at prime degree: (21 + 2*3) / 3
    assert iso_count_ef(qp_profile(3, 1), 3, 1) == 9


def test_iso_count_ef_quartics_over_q2():
    K = qp_profile(2, 2)
    assert iso_count_ef(K, 4, 1) == 48
    assert iso_count_ef(K, 2, 2) == 10


def test_iso_count_total_examples():
    for p in (2, 3, 5):
        assert iso_count_total(qp_profile(p, 0), 1) == 1
    assert iso_count_total(qp_profile(2, 1), 2) == 7
    assert iso_count_total(qp_profile(3, 1), 3) == 10


def test_iso_count_total_classical_values():
    # classical class counts: 59 quartic 2-adic fields, 26 quintic 5-adic fields
    assert iso_count_total(qp_profile(2, 2), 4) == 59
    assert iso_count_total(qp_profile(5, 1), 5) == 26
    # Jones-Roberts, "A database of local fields" (J. Symb. Comput. 41, 2006)
    assert iso_count_total(qp_profile(2, 1), 6) == 47
    assert iso_count_total(qp_profile(2, 3), 8) == 1823
    assert iso_count_total(qp_profile(3, 2), 9) == 795


def test_breakdown_terms_resum():
    K = qp_profile(2, 3)
    value, terms = iso_count_ef_terms(K, 8, 2)
    assert all(type(t.term) is int for t in terms)
    assert sum(t.term for t in terms) == value * 2
    value, terms = iso_count_total_terms(K, 8)
    assert sum(t.term for t in terms) == value * 8


def test_evaluators_refuse_invalid_profiles():
    # level 1 over Q_2 has |(Z/2)^*| = 1, so e_1 = 3 describes no field;
    # the profile cannot be built, so no evaluator can be handed it
    with pytest.raises(DomainError, match="invalid profile"):
        BaseFieldProfile(2, 1, 1, (CyclotomicDatum(1, 3, 1),))


@pytest.mark.parametrize("function, args, message", [
    (iso_count_ef, (0, 1), "iso_count_ef: e and f must be >= 1"),
    (iso_count_total, (0,), "iso_count_total: n must be >= 1"),
    (tame_iso_count, (0, 1), "tame_iso_count: e and f must be >= 1"),
])
def test_evaluators_refuse_a_degree_below_one(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(qp_profile(2, 2), *args)
    assert str(refused.value) == message


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
@pytest.mark.parametrize("function, refusal, K, args", [
    (krasner_count, "krasner_count: e and f", qp_profile(2, 3), (2, 2)),
    (cyclic_count_ef, "cyclic_count_ef: e and f", qp_profile(2, 3), (2, 2)),
    (cyclic_count_total, "cyclic_count_total: d", qp_profile(2, 3), (2,)),
    (iso_count_ef, "iso_count_ef: e and f", qp_profile(2, 3), (2, 2)),
    (iso_count_ef_terms, "iso_count_ef: e and f", qp_profile(2, 3), (2, 2)),
    (iso_count_total, "iso_count_total: n", qp_profile(2, 3), (2,)),
    (iso_count_total_terms, "iso_count_total: n", qp_profile(2, 3), (2,)),
    (tame_iso_count, "tame_iso_count: e and f", qp_profile(5, 0), (2, 2)),
    (tame_iso_count_terms, "tame_iso_count: e and f", qp_profile(5, 0), (2, 2)),
])
def test_counts_refuse_an_argument_that_is_not_an_int(function, refusal, K, args, bad):
    # a float or a bool is never coerced: 2.0 and True once counted as 2 and 1
    for at in range(len(args)):
        given = args[:at] + (bad,) + args[at + 1:]
        with pytest.raises(DomainError) as refused:
            function(K, *given)
        if len(args) > 1:
            assert str(refused.value) == f"{refusal} must be integers, got {given!r}"
        else:
            assert str(refused.value) == f"{refusal} must be an integer, got {bad!r}"


def test_profile_too_short_is_a_hard_error():
    with pytest.raises(ProfileTooShortError):
        iso_count_ef(qp_profile(2, 0), 2, 1)
    with pytest.raises(ProfileTooShortError):
        iso_count_total(qp_profile(3, 0), 3)


def test_tame_iso_count_examples():
    assert tame_iso_count(qp_profile(5, 0), 2, 1) == 2
    assert tame_iso_count(qp_profile(2, 0), 3, 2) == 2  # (gcd(3,3) + gcd(3,1)) / 2
    for p in (2, 3, 7):
        assert tame_iso_count(qp_profile(p, 0), 1, 1) == 1


def test_tame_rejects_wild_e():
    with pytest.raises(DomainError):
        tame_iso_count(qp_profile(3, 0), 6, 1)


def test_tame_terms_and_cross_check():
    K = qp_profile(2, 0)
    value, terms = tame_iso_count_terms(K, 3, 2, cross_check=True)
    assert value == 2
    assert [t.term for t in terms] == [3, 1]  # gcd(3, 2^gcd(2,0)-1), gcd(3, 2^gcd(2,1)-1)


def test_tame_summands_only_on_request():
    K = qp_profile(3, 0)
    assert tame_iso_count_terms(K, 2, 12) == (2, None)
    value, terms = tame_iso_count_terms(K, 2, 12, cross_check=True)
    assert value == 2
    assert [t.i for t in terms] == list(range(12))
    assert sum(t.term for t in terms) == value * 12


def test_tame_cross_check_refuses_too_many_summands(monkeypatch):
    K = qp_profile(3, 0)
    assert MAX_SUMMANDS == 10**5

    def no_work(*args):
        raise AssertionError("a summand was built before the refusal")

    monkeypatch.setattr(arith, "gcd_p_power_minus_one", no_work)
    with pytest.raises(MagnitudeError, match="summands"):
        tame_iso_count_terms(K, 2, MAX_SUMMANDS + 1, cross_check=True)
    monkeypatch.undo()
    monkeypatch.setattr(theorems, "MAX_SUMMANDS", 12)
    value, terms = tame_iso_count_terms(K, 2, 12, cross_check=True)
    assert (value, len(terms)) == (2, 12)
    with pytest.raises(MagnitudeError):
        tame_iso_count_terms(K, 2, 13, cross_check=True)
    assert tame_iso_count_terms(K, 2, 13) == (2, None)  # the divisor sum alone is not bounded


def test_tame_cross_check_compares_the_two_forms(monkeypatch):
    real_phi = arith.euler_phi
    # only the divisor sum uses phi; phi(4) = 6 keeps it divisible by f = 4
    monkeypatch.setattr(arith, "euler_phi", lambda n: 6 if n == 4 else real_phi(n))
    K = qp_profile(2, 0)
    assert tame_iso_count(K, 3, 4) == 3  # alone, the divisor sum cannot see it
    with pytest.raises(ConsistencyError):
        tame_iso_count_terms(K, 3, 4, cross_check=True)


def test_tame_matches_general_evaluator():
    for p in (3, 5, 7):
        K = qp_profile(p, 0)
        for e in range(1, 11):
            if e % p == 0:
                continue
            for f in range(1, 7):
                assert tame_iso_count_terms(K, e, f, cross_check=True)[0] == iso_count_ef(K, e, f)


def test_total_equals_sum_over_ef_cells():
    for p in (2, 3):
        for n in range(1, 9):
            K = qp_profile(p, arith.p_valuation(n, p).s)
            cells = sum(iso_count_ef(K, e, f) for e, f in arith.divisor_pairs(n))
            assert iso_count_total(K, n) == cells


def test_prime_degree_chain_identity():
    # at prime degree q, every tower is trivial or cyclic of degree q, so
    # classes = (krasner + phi(q) * cyclic) / q
    for p in (2, 3, 5):
        F = qp_profile(p, 2)  # xi = 1 for p = 2, else 0
        for q in (2, 3, 5):
            K = qp_profile(p, arith.p_valuation(q, p).s)
            for e, f in arith.divisor_pairs(q):
                fields = krasner_count(qp_profile(p, 0), e, f)
                cyclic = cyclic_count_ef(F, e, f)
                expected, rem = divmod(fields + (q - 1) * cyclic, q)
                assert rem == 0
                assert iso_count_ef(K, e, f) == expected, (p, e, f)


def test_sandwich_bound_small():
    for p in (2, 3):
        for n in range(1, 9):
            K = qp_profile(p, arith.p_valuation(n, p).s)
            for e, f in arith.divisor_pairs(n):
                classes = iso_count_ef(K, e, f)
                fields = krasner_count(qp_profile(p, 0), e, f)
                assert classes <= fields <= e * f * classes


def _ramified_quadratic_over_q3():
    # base with a nontrivial cyclotomic tower: adjoining the cube roots of
    # unity is unramified quadratic, level 2 has both e and f nontrivial
    from padicount.profiles import BaseFieldProfile, CyclotomicDatum

    return BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 3, 2)))


def _unramified_quadratic_over_q2():
    from padicount.profiles import BaseFieldProfile, CyclotomicDatum

    return BaseFieldProfile(
        2, 1, 2,
        (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 2, 1), CyclotomicDatum(3, 4, 1)),
    )


def test_nontrivial_base_fields_frozen_values():
    from padicount.profiles import validate

    K1 = _ramified_quadratic_over_q3()
    K2 = _unramified_quadratic_over_q2()
    assert validate(K1) == [] and validate(K2) == []
    assert (K1.p, K1.n0, K1.f0, K1.xi) == (3, 2, 1, 0)
    assert (K2.p, K2.n0, K2.f0, K2.xi) == (2, 2, 2, 1)
    # Kummer oracle: |K^x / squares| - 1 quadratic extensions, all Galois
    assert iso_count_total(K1, 2) == 3
    assert iso_count_total(K2, 2) == 15
    assert iso_count_ef(K2, 2, 1) == 14  # 15 minus the unramified one
    # chain identity at degree 3 over K1: (75 + 2*12) / 3
    assert iso_count_ef(K1, 3, 1) == 33
    # regression anchors, each confirmed by two independent evaluation routes
    assert iso_count_total(K1, 6) == 615
    assert iso_count_total(K2, 4) == 503


def test_nontrivial_base_fields_cross_checks():
    for K in (_ramified_quadratic_over_q3(), _unramified_quadratic_over_q2()):
        for q in (2, 3, 5):
            for e, f in arith.divisor_pairs(q):
                fields = krasner_count(K, e, f)
                cyclic = cyclic_count_ef(K, e, f)
                expected, rem = divmod(fields + (q - 1) * cyclic, q)
                assert rem == 0
                assert iso_count_ef(K, e, f) == expected, (K.p, e, f)
        for n in range(1, 9):
            cells = sum(iso_count_ef(K, e, f) for e, f in arith.divisor_pairs(n))
            assert iso_count_total(K, n) == cells, (K.p, n)
        for e in range(1, 8):
            if e % K.p == 0:
                continue
            for f in range(1, 5):
                assert tame_iso_count_terms(K, e, f, cross_check=True)[0] == iso_count_ef(K, e, f)


def _profile_file(name):
    return load_profile(Path(__file__).resolve().parent / "data" / name)


def test_counts_that_tower_inertia_moves_are_pinned():
    # f_i enters the divisibility exponent of iso_count_ef and the gcd exponent of
    # iso_count_total; dropped from both, these read 129173445 and 398266733
    K = _profile_file("ramified_quadratic_q3.json")
    assert iso_count_ef(K, 12, 2) == 129173607
    assert iso_count_total(K, 24) == 398266895


@pytest.mark.parametrize(
    "source, e, f, others",
    [
        ("Q_2", 8, 6, (1, 2, 3, 12)),  # e_2 = 2 and e_3 = 4
        ("ramified_quadratic_q3.json", 18, 4, (1, 2, 8)),  # f_1 = 2, and e_2 = 3
    ],
)
def test_a_row_filled_by_other_cells_gives_the_same_terms(source, e, f, others):
    K = qp_profile(2, 3) if source == "Q_2" else _profile_file(source)
    for g in others:  # the cells (e, g) fill the level sums that (e, f) shares
        iso_count_ef(K, e, g)
    value, terms = iso_count_ef_terms(K, e, f)
    assert (value, terms) == iso_count_ef_terms(BaseFieldProfile(K.p, K.e0, K.f0, K.cyclotomic), e, f)
    assert terms == sorted(terms, key=lambda t: (t.i, t.e1, t.f1))
    assert sum(t.term for t in terms) == value * f
    assert {t.i for t in terms} > {0}


def test_iso_count_total_takes_one_gcd_per_level_and_exponent(monkeypatch):
    # every k divides h = 3^60, so gcd(k, 2^F - 1) comes from gcd(h, 2^F - 1):
    # one per F = f1, 61 in all (1891, one per (k, F), before)
    real = arith.gcd_p_power_minus_one
    calls = []
    monkeypatch.setattr(arith, "gcd_p_power_minus_one", lambda *a: calls.append(a) or real(*a))
    value = iso_count_total(qp_profile(2, 0), 3**60)
    assert len(calls) == len(set(calls)) == 61
    monkeypatch.undo()
    assert iso_count_total(qp_profile(2, 0), 3**60) == value


def test_general_sums_refuse_past_the_summand_bound(monkeypatch):
    # e = 4096, f = 4 over Q_2 has 309 summands: 13*3 at level 0, (14 - i)*3 at i >= 1;
    # n = 3^20 over Q_2 has 231: d = 3^j leaves the 21 - j splits of 3^(20-j)
    K = qp_profile(2, 12)
    value, total = iso_count_ef(K, 4096, 4), iso_count_total(K, 3**20)
    monkeypatch.setattr(theorems, "MAX_SUMMANDS", 309)
    assert (iso_count_ef(K, 4096, 4), iso_count_total(K, 3**20)) == (value, total)
    monkeypatch.setattr(theorems, "MAX_SUMMANDS", 308)
    with pytest.raises(MagnitudeError, match=r"^iso_count_ef\(e=4096, f=4\): 309 summands, more than 308$"):
        iso_count_ef(K, 4096, 4)  # on a warm profile too
    monkeypatch.setattr(theorems, "MAX_SUMMANDS", 231)
    assert iso_count_total(K, 3**20) == total
    monkeypatch.setattr(theorems, "MAX_SUMMANDS", 230)
    with pytest.raises(MagnitudeError, match=r"^iso_count_total\(n=3486784401\): 231 summands, more than 230$"):
        iso_count_total(K, 3**20)


def test_division_guards_fire_on_corrupted_inputs(monkeypatch):
    # breaking an ingredient must surface as ConsistencyError, never a rounded result
    real_phi = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 2 if n == 2 else real_phi(n))
    with pytest.raises(ConsistencyError):
        theorems.iso_count_ef(qp_profile(5, 0), 1, 2)


def test_a_remainder_in_iso_count_ef_names_the_cell_and_both_numbers(monkeypatch):
    # phi(2) = 2 makes the f-sum 3, which f = 2 does not divide
    real_phi = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 2 if n == 2 else real_phi(n))
    with pytest.raises(ConsistencyError) as refused:
        theorems.iso_count_ef(qp_profile(5, 0), 1, 2)
    assert str(refused.value) == "iso_count_ef(e=1, f=2): 3 is not divisible by 2"


def test_cyclic_division_guard_fires(monkeypatch):
    monkeypatch.setattr(counting, "pi_count", lambda p, m, s, xi, bits=None: 3)
    with pytest.raises(ConsistencyError):
        counting.cyclic_count_ef(qp_profile(3, 1), 3, 1)


PROFILE_FILES = ("ramified_quadratic_q3.json", "unramified_quadratic_q2.json")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), e=st.integers(1, 36), f=st.integers(1, 36), n=st.integers(1, 36))
def test_value_only_and_breakdown_paths_agree(data, e, f, n):
    # drawn towers may have f0 = 2 and levels with f_i > 1
    source = data.draw(st.one_of(st.sampled_from((2, 3, 5) + PROFILE_FILES), valid_profiles()))
    if isinstance(source, BaseFieldProfile):
        K = source
    elif source in PROFILE_FILES:
        K = load_profile(Path(__file__).resolve().parent / "data" / source)
    else:
        need = max(arith.p_valuation(m, source).s for m in (e, n))
        K = qp_profile(source, need + data.draw(st.integers(0, 1)))
    assume(max(arith.p_valuation(m, K.p).s for m in (e, n)) <= K.depth)

    # value-only on a cold profile, then the breakdown on the now warm one
    cold = (iso_count_ef(K, e, f), iso_count_total(K, n))
    value, terms = iso_count_ef_terms(K, e, f)
    total, total_terms = iso_count_total_terms(K, n)
    assert (value, total) == cold
    assert value * f == sum(t.term for t in terms)
    assert total * n == sum(t.term for t in total_terms)
    assert (iso_count_ef(K, e, f), iso_count_total(K, n)) == cold

    # the breakdown on a cold profile gives the same summands
    fresh = BaseFieldProfile(K.p, K.e0, K.f0, K.cyclotomic)
    assert iso_count_ef_terms(fresh, e, f) == (value, terms)
    assert iso_count_total_terms(fresh, n) == (total, total_terms)
