"""Exact integer helpers shared by every counting formula.

Everything is plain arbitrary-precision integer arithmetic.  No loop runs
longer than a fixed bound; an input past it raises MagnitudeError:

* primality is deterministic Miller-Rabin, exact below MR_BOUND (about
  3.3e24) and refused past it;
* factoring is trial division up to TRIAL_BOUND (10^6) with a primality
  shortcut for the cofactor, so every n below 10^12 factors, and so does
  any n below MR_BOUND all of whose prime factors but the largest are at
  most 10^6; divisor lists are built from the factorisation, under the
  same bound;
* multiplicative orders come from the factorisation of phi(modulus), and
  divisibility questions about p^F - 1 are answered through them or by
  modular reduction, so huge powers are never materialized;
* valuations divide in rounds, by p, p^2, p^4, ..., so a huge power of p
  costs a few long divisions, not one per factor;
* exact_quotient is the one checked division: a remainder raises
  ConsistencyError;
* parse_decimal is the one reader of integer inputs: ASCII -?[0-9]+ only.

No helper here checks that its p is prime: p comes from a base-field
profile, which checks that once, when it is built.  A helper refuses
only a p for which its own loop would not end.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import ConsistencyError, DomainError, MagnitudeError

# Sorenson and Webster (Math. Comp. 86, 2017): no composite below MR_BOUND
# is a strong pseudoprime to all of the first 13 prime bases.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
# Trial divisors above SHORTCUT_FROM test the cofactor for primality first;
# none goes past TRIAL_BOUND.
SHORTCUT_FROM = 1000
TRIAL_BOUND = 10**6


PValuation = namedtuple("PValuation", "s h")
PValuation.__doc__ = "The split n = p^s * h with gcd(h, p) = 1."


def is_prime(n: int) -> bool:
    """Exact primality: trial division by MR_BASES, then Miller-Rabin to
    every one of them.

    A number with no prime factor up to 41 and below 43^2 is prime.  A
    number at or past MR_BOUND that trial division does not settle raises
    MagnitudeError: no answer is ever a probabilistic one.
    """
    if n < 4:
        return n > 1
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    if n < 1849:
        return True
    if n >= MR_BOUND:
        raise MagnitudeError(
            f"is_prime: {n} >= {MR_BOUND}, past the range where "
            "Miller-Rabin to bases 2..41 is proven exact"
        )
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending.

    Trial division; past SHORTCUT_FROM the cofactor is tested with
    is_prime after each factor found, so a large prime cofactor ends the
    search at once.  A composite cofactor with no prime factor up to
    TRIAL_BOUND raises MagnitudeError, so every n < TRIAL_BOUND^2 factors.
    """
    if n < 1:
        raise DomainError("prime_factors: n must be >= 1")
    out = []
    rest = n
    p = 2
    while p * p <= rest:
        if p > SHORTCUT_FROM:
            return _prime_factors_from(p, rest, out)
        if rest % p == 0:
            out.append(p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append(rest)
    return out


def _prime_factors_from(p: int, rest: int, out: list[int]) -> list[int]:
    """Finish prime_factors for rest > 1, which has no prime factor below
    the odd trial divisor p."""
    while not is_prime(rest):
        # rest is composite, so it has a prime factor in [p, sqrt(rest)]
        while rest % p:
            p += 2
            if p > TRIAL_BOUND:
                raise MagnitudeError(
                    f"prime_factors: {rest} has no prime factor up to {TRIAL_BOUND}"
                )
        out.append(p)
        while rest % p == 0:
            rest //= p
        if rest == 1:
            return out
    out.append(rest)
    return out


def euler_phi(n: int) -> int:
    """Euler's totient of n."""
    if n < 1:
        raise DomainError("euler_phi: n must be >= 1")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def p_valuation(n: int, p: int) -> PValuation:
    """Largest s with p^s | n, together with the cofactor h = n / p^s.

    Divides in rounds by p, p^2, p^4, ... while each divides, then starts
    again from p, so s costs O(log(s)^2) divisions; when p does not
    divide n it costs one modulo.  Well defined for any p >= 2, prime or
    not; p < 2 would never stop dividing and is refused.
    """
    if n < 1:
        raise DomainError("p_valuation: n must be >= 1")
    if p < 2:
        raise DomainError(f"p_valuation: p = {p} must be >= 2")
    s, h = 0, n
    while h % p == 0:
        power, k = p, 1
        while h % power == 0:
            h //= power
            s += k
            power, k = power * power, 2 * k
    return PValuation(s, h)


def exact_quotient(total: int, divisor: int, where: str) -> int:
    """total // divisor, for a division the formulas make exact; a
    remainder means the implementation itself is wrong."""
    q, rem = divmod(total, divisor)
    if rem:
        raise ConsistencyError(f"{where}: {total} is not divisible by {divisor}")
    return q


def parse_decimal(text: str) -> int | None:
    """The integer written as ASCII -?[0-9]+ in text, else None.

    int() alone also takes "1_0", " 1" and non-ASCII digits, and raises
    ValueError past sys.get_int_max_str_digits() digits; both give None.
    """
    if not re.fullmatch("-?[0-9]+", text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, built from its factorisation,
    so n is refused exactly where prime_factors refuses it."""
    out = [1]
    for q in prime_factors(n):
        out = [d * q**k for k in range(p_valuation(n, q).s + 1) for d in out]
    return sorted(out)


def divisor_pairs(n: int) -> list[tuple[int, int]]:
    """Every ordered factorization n = d1 * d2, ascending in d1."""
    return [(d, n // d) for d in divisors(n)]


def mult_order(p: int, modulus: int) -> int:
    """Smallest t >= 1 with p^t = 1 mod modulus; 1 when modulus = 1.

    The order divides phi(modulus): each prime q of phi(modulus) is divided
    out of t for as long as p^(t/q) stays 1.
    """
    if modulus < 1:
        raise DomainError("mult_order: modulus must be >= 1")
    if math.gcd(p, modulus) != 1:
        raise DomainError(f"mult_order: gcd({p}, {modulus}) != 1")
    t = euler_phi(modulus)
    for q in prime_factors(t):
        while t % q == 0 and pow(p, t // q, modulus) == 1:
            t //= q
    return t


def divides_p_power_minus_one(h: int, p: int, exponent: int) -> bool:
    """Whether h divides p^exponent - 1, decided via the order of p mod h.

    Never forms p^exponent, so arbitrarily large exponents stay cheap.
    """
    if h < 1 or exponent < 1:
        raise DomainError("divides_p_power_minus_one: h and exponent must be >= 1")
    if math.gcd(h, p) != 1:
        raise DomainError(f"divides_p_power_minus_one: gcd({h}, {p}) != 1")
    return exponent % mult_order(p, h) == 0


def gcd_p_power_minus_one(a: int, p: int, exponent: int) -> int:
    """gcd(a, p^exponent - 1), with p^exponent reduced modulo a first."""
    if a < 1 or exponent < 1:
        raise DomainError("gcd_p_power_minus_one: a and exponent must be >= 1")
    if a == 1:
        return 1
    return math.gcd(a, (pow(p, exponent, a) - 1) % a)
