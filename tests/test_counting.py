import pytest
from test_cli import _int_str_digits

from padicount import arith, counting
from padicount.counting import (
    cyclic_count_ef,
    cyclic_count_total,
    delta_count,
    krasner_count,
    pi_count,
    psi_count,
    sigma_krasner,
)
from padicount.errors import DomainError, MagnitudeError
from padicount.profiles import (
    BaseFieldProfile,
    cyclotomic_profile,
    qp_profile,
    unramified_profile,
)

Q2 = qp_profile(2, 2)  # xi = 1
Q3 = qp_profile(3, 1)  # xi = 0


def test_sigma_krasner_trivial_s():
    for p in (2, 3, 5):
        for N in (1, 2, 6, 30):
            assert sigma_krasner(p, N, 0) == 1


def test_sigma_krasner_hand_values():
    assert sigma_krasner(2, 2, 1) == 3  # 1 + 2*(2 - 1)
    assert sigma_krasner(3, 3, 1) == 7  # 1 + 3*(3 - 1)
    # exponents eps(i)*N for N = 4, p = 2: 0, 2, 3
    assert sigma_krasner(2, 4, 2) == 1 + 2 * (4 - 1) + 4 * (8 - 4)


def test_sigma_krasner_requires_p_power_dividing_N():
    with pytest.raises(DomainError):
        sigma_krasner(2, 3, 1)
    with pytest.raises(DomainError):
        sigma_krasner(3, 6, 2)


def test_sigma_krasner_strictly_increasing_in_s():
    for p in (2, 3, 5):
        for c in (1, 2, 3):
            N = p**3 * c
            values = [sigma_krasner(p, N, s) for s in range(4)]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_sigma_krasner_magnitude_guard():
    with pytest.raises(MagnitudeError):
        sigma_krasner(2, 1 << 25, 1)


def test_magnitude_guard_env_override(monkeypatch):
    monkeypatch.setenv(counting.MAX_BITS_ENV, "64")
    with pytest.raises(MagnitudeError):
        sigma_krasner(2, 256, 1)
    monkeypatch.setenv(counting.MAX_BITS_ENV, "not a number")
    with pytest.raises(DomainError):
        counting.magnitude_bits()


@pytest.mark.parametrize("base, exponent", [(2, 63), (3, 40), (2, 0), (1, 10**6), (0, 10**6)])
def test_guarded_power_allows_a_result_of_exactly_the_limit(base, exponent):
    assert counting.guarded_power(base, exponent, 64) == base**exponent


@pytest.mark.parametrize("base, exponent", [(2, 64), (4, 32), (3, 41), (2, 10**18)])
def test_guarded_power_refuses_a_result_one_bit_past_the_limit(base, exponent):
    # 2^64 has 65 bits; a rule in floats let every exact power of 2 through
    with pytest.raises(MagnitudeError):
        counting.guarded_power(base, exponent, 64)


def test_guarded_power_names_an_exponent_past_the_int_string_limit():
    exponent = 10**5000
    with pytest.raises(MagnitudeError) as refused:
        counting.guarded_power(3, exponent, 64)
    with _int_str_digits(0):
        assert str(refused.value) == f"3^{exponent} exceeds the magnitude limit of 64 bits"


def test_krasner_count_examples():
    for p in (2, 3, 5):
        for f in (1, 2, 3):
            assert krasner_count(qp_profile(p, 0), 1, f) == 1
    assert krasner_count(qp_profile(2, 0), 2, 1) == 6
    assert krasner_count(qp_profile(3, 0), 3, 1) == 21


def test_krasner_count_validation():
    K = qp_profile(2, 0)
    for e, f in ((0, 1), (2, 0), (-1, 1)):
        with pytest.raises(DomainError, match="e and f must be >= 1"):
            krasner_count(K, e, f)
    # p and n0 are the profile's: a bad one never reaches the count
    with pytest.raises(DomainError, match="not prime"):
        BaseFieldProfile(4, 1, 1)
    with pytest.raises(DomainError, match="e0 = 0"):
        BaseFieldProfile(2, 0, 1)


def test_sigma_krasner_refuses_p_below_two():
    for p in (1, 0, -3):
        with pytest.raises(DomainError, match="must be >= 2"):
            sigma_krasner(p, 1, 0)


def test_pi_count_examples():
    for p, m, xi in ((2, 1, 0), (3, 2, 1), (5, 3, 2)):
        assert pi_count(p, m, 0, xi) == 1
    assert pi_count(2, 1, 1, 1) == 3  # order-2 elements of C_2 x C_2
    assert pi_count(3, 2, 1, 0) == 8  # order-3 elements of C_3 x C_3


def test_delta_count_examples():
    assert delta_count(2, 1, 0, 0) == 1
    assert delta_count(5, 3, 0, 0) == 1
    assert delta_count(2, 1, 1, 1) == 2
    for p, m, s in ((2, 1, 1), (3, 2, 2), (5, 1, 3)):
        assert delta_count(p, m, s, s + 1) == 0


def test_delta_matches_pi_differences():
    for p in (2, 3):
        for m in range(1, 4):
            for s in range(0, 4):
                assert delta_count(p, m, s, 0) == pi_count(p, m, s, 0)
                for i in range(1, s + 1):
                    assert delta_count(p, m, s, i) == pi_count(p, m, s, i) - pi_count(p, m, s, i - 1)


def test_psi_count_examples():
    for v in (1, 2, 9):
        assert psi_count(1, v) == 1
    assert psi_count(2, 2) == 3
    assert psi_count(4, 2) == 4


def test_psi_count_at_v_zero_is_psi_count_at_v_equal_u():
    # v = 0 is in the domain v >= 0; the count reads v through gcd(u, v), and gcd(u, 0) = u
    for u in range(1, 31):
        assert psi_count(u, 0) == psi_count(u, u), u


def test_psi_count_tiny_brute_force():
    # direct enumeration of C_u x C_v for very small u, v
    from math import gcd, lcm

    for u in range(1, 9):
        for v in range(1, 9):
            count = sum(
                1
                for a in range(u)
                for b in range(v)
                if lcm(u // gcd(a, u), v // gcd(b, v)) == u
            )
            assert psi_count(u, v) == count


def test_psi_depends_only_on_gcd_with_p_power_minus_one():
    for k in range(1, 40):
        for p in (2, 3, 5):
            for exp in (1, 2, 7, 20):
                gcd = arith.gcd_p_power_minus_one(k, p, exp)
                assert psi_count(k, gcd) == psi_count(k, p**exp - 1)


def test_cyclic_count_ef_examples():
    assert cyclic_count_ef(Q2, 2, 1) == 6
    for F, d in ((Q2, 4), (Q3, 6)):
        assert cyclic_count_ef(F, 1, d) == 1  # unique unramified cyclic extension
    assert cyclic_count_ef(Q3, 3, 1) == 3


def test_cyclic_count_ef_vanishes_without_tame_roots():
    # h = 3 does not divide 2^1 - 1
    assert cyclic_count_ef(Q2, 3, 1) == 0
    # but 3 | 2^2 - 1, so inertia 2 admits it
    K = unramified_profile(qp_profile(2, 2), 2)  # Q_4
    assert cyclic_count_ef(K, 3, 1) > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cyclic_count_ef_vanishes_exactly_when_h_does_not_divide_p_power_minus_one(p):
    # cyclic_count_ef tests h | p^f0 - 1 through the gcd; the order test is the reference
    for f0 in (1, 2, 3):
        K = unramified_profile(qp_profile(p, 2), f0)
        for e in range(1, 201):
            h = arith.p_valuation(e, p).h
            divides = arith.divides_p_power_minus_one(h, p, f0)
            assert (cyclic_count_ef(K, e, 1) > 0) == divides, (p, f0, e)


def test_cyclic_count_total_examples():
    assert cyclic_count_total(Q2, 1) == 1
    assert cyclic_count_total(Q3, 1) == 1
    assert cyclic_count_total(Q2, 2) == 7
    assert cyclic_count_total(Q3, 3) == 4


def test_cyclic_decomposition_small():
    # Q_3(zeta_3) as well: (p, n0, f0, xi) = (3, 2, 1, 1)
    K = cyclotomic_profile(3, 1, 2)
    for F in (Q2, Q3, K):
        for d in range(1, 13):
            from padicount.arith import divisor_pairs

            assert cyclic_count_total(F, d) == sum(
                cyclic_count_ef(F, e, f) for e, f in divisor_pairs(d)
            )


def test_cyclic_counts_over_a_field_with_xi_two():
    # Q_2(zeta_4): every other cyclic check has xi <= 1, so a count that
    # capped xi at 1 would pass them all (it gives totals 56 and 224 here)
    from padicount import oracles

    K = cyclotomic_profile(2, 2, 3)
    assert K.xi == 2
    assert (cyclic_count_total(K, 4), cyclic_count_total(K, 8)) == (120, 448)
    cells = {4: {1: 112, 2: 7, 4: 1}, 8: {1: 384, 2: 56, 4: 7, 8: 1}}
    for d, by_f in cells.items():
        by_meet = oracles.dual_cyclic_subgroup_count(oracles.dual_group(K, d))
        assert {f: by_meet[f] for f in by_f} == by_f
        assert {f: cyclic_count_ef(K, d // f, f) for f in by_f} == by_f


@pytest.mark.parametrize("function, args, message", [
    (counting.guarded_power, (2, -1, 64), "guarded_power: exponent -1 must be >= 0"),
    (sigma_krasner, (2, 0, 0), "sigma_krasner: N must be >= 1"),
    (sigma_krasner, (2, 4, -1), "sigma_krasner: s must be >= 0"),
    (psi_count, (0, 1), "psi_count: u must be >= 1 and v >= 0"),
    (cyclic_count_ef, (Q2, 0, 1), "cyclic_count_ef: e and f must be >= 1"),
    (cyclic_count_total, (Q2, 0), "cyclic_count_total: d must be >= 1"),
])
def test_counting_refuses_arguments_below_its_domain(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
@pytest.mark.parametrize("function, refusal, args", [
    (sigma_krasner, "sigma_krasner: p, N and s", (2, 4, 1)),
    (pi_count, "pi_count: p, m, s and xi", (2, 2, 1, 1)),
    (delta_count, "delta_count: p, m, s and i", (2, 2, 1, 0)),
    (psi_count, "psi_count: u and v", (2, 3)),
])
def test_closed_forms_refuse_an_argument_that_is_not_an_int(function, refusal, args, bad):
    # each once coerced or crashed: sigma_krasner(2, 4.0, 1) raised a bare
    # AttributeError, and psi_count(True, 3) returned 1
    for at in range(len(args)):
        given = args[:at] + (bad,) + args[at + 1:]
        with pytest.raises(DomainError) as refused:
            function(*given)
        assert str(refused.value) == f"{refusal} must be integers, got {given!r}"


def test_counts_are_nonnegative():
    for F in (Q2, Q3):
        for e in range(1, 7):
            for f in range(1, 7):
                assert cyclic_count_ef(F, e, f) >= 0
