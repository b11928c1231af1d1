import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import _int_str_digits

from padicount import arith
from padicount.errors import ConsistencyError, DomainError, MagnitudeError


def test_euler_phi_examples():
    assert arith.euler_phi(1) == 1
    # 4 = brute count of k < 12 with gcd(k, 12) = 1
    assert arith.euler_phi(12) == 4
    # primes give p - 1
    assert arith.euler_phi(7) == 6


def test_euler_phi_rejects_zero():
    with pytest.raises(DomainError):
        arith.euler_phi(0)


def test_euler_phi_brute_force_to_ten_thousand():
    # totient sieve: for each prime q, every multiple of q loses 1/q of its value
    top = 10_000
    phi = list(range(top + 1))
    for q in range(2, top + 1):
        if phi[q] == q:  # untouched so far, hence prime
            for m in range(q, top + 1, q):
                phi[m] -= phi[m] // q
    for n in range(1, top + 1):
        assert arith.euler_phi(n) == phi[n], n


def test_p_valuation_examples():
    assert arith.p_valuation(12, 2) == (2, 3)
    assert arith.p_valuation(7, 3) == (0, 7)
    assert arith.p_valuation(8, 2) == (3, 1)


def test_p_valuation_refuses_p_below_two():
    # primality of p is the profile's job; p < 2 would divide forever
    for p in (1, 0, -3):
        with pytest.raises(DomainError):
            arith.p_valuation(12, p)
    with pytest.raises(DomainError):
        arith.p_valuation(0, 2)
    assert arith.p_valuation(12, 4) == (1, 3)


def _valuation_one_factor_at_a_time(n, p):
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n


def test_p_valuation_in_rounds_equals_dividing_one_factor_at_a_time():
    for p in (2, 3, 4, 6, 100000000003):
        # cofactors p does not divide; 2 shares a factor with p = 4 and p = 6
        for cofactor in (c for c in (2, p + 1) if c % p):
            for k in (0, 1, 2, 3, 7, 64, 1000, 4097):
                n = p**k * cofactor
                assert arith.p_valuation(n, p) == _valuation_one_factor_at_a_time(n, p), (
                    p, cofactor, k,
                )
                assert arith.p_valuation(n, p) == (k, cofactor)


def test_exact_quotient_divides_or_names_the_remainder():
    assert arith.exact_quotient(12, 4, "here") == 3
    assert arith.exact_quotient(-12, 4, "here") == -3
    with pytest.raises(ConsistencyError, match="here: 13 is not divisible by 4"):
        arith.exact_quotient(13, 4, "here")


def test_exact_quotient_names_a_remainder_past_the_int_string_limit():
    # a ValueError from str() here would escape selfcheck's guard, which records
    # a ConsistencyError as a failed check
    total = 10**5000 + 1
    with pytest.raises(ConsistencyError) as refused:
        arith.exact_quotient(total, 10, "x")
    with _int_str_digits(0):
        assert str(refused.value) == f"x: {total} is not divisible by 10"


def test_exact_quotient_formats_where_only_on_a_remainder_and_only_with_args():
    assert arith.exact_quotient(12, 4, "{} {}", 1) == 3  # never formatted: no IndexError
    with pytest.raises(ConsistencyError) as refused:
        arith.exact_quotient(13, 4, "set {}")
    assert str(refused.value) == "set {}: 13 is not divisible by 4"
    with pytest.raises(ConsistencyError) as refused:
        arith.exact_quotient(13, 4, "f(e={}, f={})", 2, 3)
    assert str(refused.value) == "f(e=2, f=3): 13 is not divisible by 4"


def test_exact_quotient_writes_an_argument_past_the_int_string_limit_in_full():
    big = 10**5000 + 7
    with pytest.raises(ConsistencyError) as refused:
        arith.exact_quotient(13, 4, "psi_count({}, {})", big, 1)
    with _int_str_digits(0):
        assert str(refused.value) == f"psi_count({big}, 1): 13 is not divisible by 4"


def test_parse_decimal_reads_ascii_digits_only():
    assert [arith.parse_decimal(t) for t in ("0", "42", "-7", "007")] == [0, 42, -7, 7]
    for text in ("", "-", "+4", " 1", "1 ", "1_0", "2.0", "\uff12", "\u0663", "1\n", "9" * 5000):
        assert arith.parse_decimal(text) is None


def test_divisor_pairs_examples():
    assert arith.divisor_pairs(1) == [(1, 1)]
    assert arith.divisor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert arith.divisor_pairs(4) == [(1, 4), (2, 2), (4, 1)]


def test_divisor_pairs_complete_and_exact():
    for n in range(1, 201):
        pairs = arith.divisor_pairs(n)
        tau = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(pairs) == tau
        assert all(a * b == n for a, b in pairs)
        assert [a for a, _ in pairs] == sorted({a for a, _ in pairs})


def test_divisors_refuse_a_list_past_the_bound_before_building_it():
    # (2*3*5*7*11)^4 * 13*17*19*23*29 has 5^5 * 2^5 divisors, exactly the bound
    n = 2310**4 * 13 * 17 * 19 * 23 * 29
    assert arith.MAX_DIVISORS == 10**5
    assert len(arith.divisors(n)) == arith.MAX_DIVISORS
    with pytest.raises(MagnitudeError) as refused:
        arith.divisors(31 * n)
    assert str(refused.value) == "divisors: n has 200000 divisors, more than 100000"
    assert len(arith.divisors(2**13000)) == 13001


def test_mult_order_examples():
    assert arith.mult_order(2, 7) == 3
    assert arith.mult_order(2, 1) == 1
    assert arith.mult_order(3, 8) == 2


def test_mult_order_against_brute_force():
    for p in (2, 3, 5, 7):
        for h in range(1, 2001):
            if math.gcd(p, h) != 1:
                continue
            t, x = 1, p % h
            while x != 1 % h:
                x = x * p % h
                t += 1
            assert arith.mult_order(p, h) == t, (p, h)


def test_mult_order_rejects_shared_factor():
    with pytest.raises(DomainError):
        arith.mult_order(2, 6)


def test_divides_p_power_minus_one_examples():
    assert arith.divides_p_power_minus_one(3, 2, 2) is True  # 2^2 - 1 = 3
    assert arith.divides_p_power_minus_one(1, 5, 9) is True
    assert arith.divides_p_power_minus_one(3, 2, 1) is False  # 2^1 - 1 = 1


def test_divides_p_power_minus_one_rejects_shared_factor():
    with pytest.raises(DomainError):
        arith.divides_p_power_minus_one(6, 2, 3)


def test_divides_p_power_minus_one_against_direct_powers():
    for p in (2, 3, 5, 7):
        powers = [pow(p, F) for F in range(51)]
        for h in range(1, 501):
            if math.gcd(h, p) != 1:
                continue
            for F in range(1, 51):
                direct = (powers[F] - 1) % h == 0
                assert arith.divides_p_power_minus_one(h, p, F) == direct, (h, p, F)


def test_gcd_p_power_minus_one_against_direct_powers():
    for p in (2, 3, 5):
        for a in range(1, 201):
            for F in range(1, 31):
                assert arith.gcd_p_power_minus_one(a, p, F) == math.gcd(a, p**F - 1)


def test_prime_factors():
    assert arith.prime_factors(1) == []
    assert arith.prime_factors(60) == [(2, 2), (3, 1), (5, 1)]
    assert arith.prime_factors(97) == [(97, 1)]


def test_prime_factors_past_the_shortcut():
    assert arith.prime_factors(999_999_999_989) == [(999_999_999_989, 1)]  # largest prime < 10^12
    assert arith.prime_factors(2 * 999_983 * 999_979) == [(2, 1), (999_979, 1), (999_983, 1)]
    assert arith.prime_factors(1009**2 * 999_999_999_989) == [(1009, 2), (999_999_999_989, 1)]
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        assert arith.prime_factors(n) == sorted(sympy.factorint(n).items()), n


def test_prime_factors_of_prime_powers_past_the_shortcut():
    # the trial division past the shortcut ends when the last prime divides out
    for n in (1009**2, 1009**3, 1009**2 * 1013, 3**8000, 2**3000 * 3**2000 * 1009**2 * 999_983**3):
        assert arith.prime_factors(n) == sorted(sympy.factorint(n).items()), n


def _plain_trial_division(n):
    out, q = [], 2
    while q * q <= n:
        a = 0
        while n % q == 0:
            n, a = n // q, a + 1
        if a:
            out.append((q, a))
        q += 1
    return out + [(n, 1)] * (n > 1)


def test_prime_factors_equals_plain_trial_division_across_the_shortcut():
    # factors below, at and past SHORTCUT_FROM, in one n and in both loops
    assert (991, 997, 1009, 1013) == tuple(q for q in range(990, 1014) if arith.is_prime(q))
    below, past = (2, 3, 991, 997), (1009, 1013, 1019, 10007, 999_983)
    numbers = [b**a * q**c for b in below for q in past for a in (1, 2) for c in (1, 2, 3)]
    numbers += [991 * 997 * 1009 * 1013, 997**2 * 1009**2, 2**5 * 1009 * 10007 * 999_983]
    numbers += list(range(arith.SHORTCUT_FROM**2 - 50, arith.SHORTCUT_FROM**2 + 50))
    numbers += list(range(1, 3000))
    for n in numbers:
        assert arith.prime_factors(n) == _plain_trial_division(n), n


@pytest.mark.parametrize("function, args, message", [
    (arith.prime_factors, (0,), "prime_factors: n must be >= 1"),
    (arith.mult_order, (2, 0), "mult_order: modulus must be >= 1"),
    (arith.divides_p_power_minus_one, (0, 2, 1), "divides_p_power_minus_one: h and exponent must be >= 1"),
    (arith.gcd_p_power_minus_one, (0, 2, 1), "gcd_p_power_minus_one: a and exponent must be >= 1"),
])
def test_arith_refuses_arguments_below_its_domain(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(*args)
    assert str(refused.value) == message


def test_prime_factors_refuses_two_primes_past_the_trial_bound():
    with pytest.raises(MagnitudeError):
        arith.prime_factors(1_000_000_007 * 1_000_000_009)


# primes on both sides of SHORTCUT_FROM (1000) and of TRIAL_BOUND (10^6)
NEAR_THE_BOUNDS = (997, 1009, 1013, 999_979, 999_983, 1_000_003, 1_000_033)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.one_of(
    st.integers(1, 10**12 - 1),
    st.builds(
        lambda cofactor, primes: cofactor * math.prod(primes),
        st.integers(1, 10**4),
        st.lists(st.sampled_from(NEAR_THE_BOUNDS), max_size=4),  # at most 4: below MR_BOUND
    ),
))
def test_prime_factors_matches_sympy_and_refuses_exactly_two_primes_past_the_trial_bound(n):
    expected = sorted(sympy.factorint(n).items())
    past = [(q, a) for q, a in expected if q > arith.TRIAL_BOUND]
    if sum(a for _, a in past) < 2:
        assert arith.prime_factors(n) == expected
        return
    with pytest.raises(MagnitudeError) as refused:
        arith.prime_factors(n)
    rest = math.prod(q**a for q, a in past)
    assert str(refused.value) == f"prime_factors: {rest} has no prime factor up to 1000000"


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert arith.is_prime(n) == (n in primes)


def test_is_prime_against_sympy_to_a_hundred_thousand():
    for n in range(-2, 100_001):
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_is_prime_against_sympy_on_large_values():
    rng = random.Random(2017)
    values = []
    for bits in range(40, 81):
        values.append(rng.getrandbits(bits) | 1 << (bits - 1) | 1)
        values.append(sympy.nextprime(rng.getrandbits(bits)))
        # products of two primes: no small factor, so Miller-Rabin decides
        half = bits // 2
        values.append(sympy.nextprime(rng.getrandbits(half)) * sympy.nextprime(rng.getrandbits(half)))
    for n in values:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers whose prime factors all exceed the trial bases
    carmichael = (1152271, 10024561, 10267951, 14913991)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23
    strong = (3215031751, 3825123056546413051)
    for n in carmichael:
        factors = sympy.factorint(n)
        assert min(factors) > 41 and all((n - 1) % (q - 1) == 0 for q in factors), n
    for n in carmichael + strong:
        assert not sympy.isprime(n)
        assert arith.is_prime(n) is False, n


def test_is_prime_refuses_past_the_proven_bound():
    with pytest.raises(MagnitudeError):
        arith.is_prime(arith.MR_BOUND)
    assert arith.MR_BOUND == 3317044064679887385961981
    # a factor among the bases still settles a number past the bound
    assert arith.is_prime(arith.MR_BOUND + 1) is False
    assert arith.is_prime(sympy.prevprime(arith.MR_BOUND)) is True


def test_is_prime_names_a_number_past_the_int_string_limit():
    n = 43**3000  # 4901 digits, and no factor among the trial bases
    with pytest.raises(MagnitudeError) as refused:
        arith.is_prime(n)
    with _int_str_digits(0):
        assert str(refused.value).startswith(f"is_prime: {n} >= {arith.MR_BOUND}, past ")
