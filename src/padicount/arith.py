"""Exact integer helpers shared by every counting formula.

Everything is plain arbitrary-precision integer arithmetic.  No loop runs
longer than a fixed bound; an input past it raises MagnitudeError:

* primality is deterministic Miller-Rabin, exact below MR_BOUND (about
  3.3e24) and refused past it;
* factoring is trial division up to TRIAL_BOUND (10^6), with a
  primality shortcut for the cofactor past SHORTCUT_FROM, so every n
  below 10^12 factors, and so does any n below MR_BOUND all of whose
  prime factors but the largest are at most 10^6; it returns each prime
  with its exponent, which p_valuation finds as it strips the prime, in
  rounds;
* divisor lists are built from the factorisation, under the same bound,
  and are refused past MAX_DIVISORS entries, counted before any is built;
* gcd_p_power_minus_one reduces p^F modulo its other argument, so huge
  powers are never materialized, and h divides p^F - 1 when that gcd is
  h; mult_order and divides_p_power_minus_one decide that divisibility
  from the order of p instead, for one caller, theorems._level_sum;
* valuations divide in rounds, by p, p^2, p^4, ..., so a huge power of p
  costs a few long divisions, not one per factor;
* exact_quotient is the one checked division: a remainder raises
  ConsistencyError;
* require_counts is the one argument check of the counts and closed
  forms: a value that is not an int, or one below its floor, raises
  DomainError;
* parse_decimal is the one reader of integer inputs, ASCII -?[0-9]+ only,
  and format_decimal the one writer, of any length: a message writes
  each int that input can make long through it, and each repr that may
  hold one through format_repr.

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
# 2 and every odd number up to SHORTCUT_FROM: the trial divisors before the shortcut.
_SMALL_TRIAL_DIVISORS = (2, *range(3, SHORTCUT_FROM + 1, 2))
# A divisor list longer than this is refused before it is built.
MAX_DIVISORS = 10**5


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
            f"is_prime: {format_decimal(n)} >= {MR_BOUND}, past the range where "
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


def prime_factors(n: int) -> list[tuple[int, int]]:
    """The factorisation of n: each prime q with its exponent a, as pairs
    (q, a), ascending in q.

    Trial division, in two loops: up to SHORTCUT_FROM, then past it.  A
    prime found is divided out once, and p_valuation strips the rest of
    its power.  Past SHORTCUT_FROM the cofactor is tested with is_prime on
    the way in and again after each factor found, so a large prime
    cofactor ends the search at once, and the scan between two tests does
    nothing but divide.  A composite cofactor with no prime factor up to
    TRIAL_BOUND raises MagnitudeError, so every n < TRIAL_BOUND^2 factors.
    """
    if n < 1:
        raise DomainError("prime_factors: n must be >= 1")
    out, rest = [], n
    for p in _SMALL_TRIAL_DIVISORS:
        if p * p > rest:
            break
        if rest % p == 0:
            rest //= p
            s, rest = p_valuation(rest, p) if rest % p == 0 else (0, rest)
            out.append((p, s + 1))
    else:  # past SHORTCUT_FROM
        p = _SMALL_TRIAL_DIVISORS[-1] + 2
        while p * p <= rest and not is_prime(rest):
            # rest is composite with no prime factor below p: one lies in [p, sqrt(rest)]
            for p in range(p, TRIAL_BOUND + 1, 2):
                if rest % p == 0:
                    break
            else:
                raise MagnitudeError(
                    f"prime_factors: {rest} has no prime factor up to {TRIAL_BOUND}"
                )
            rest //= p
            s, rest = p_valuation(rest, p) if rest % p == 0 else (0, rest)
            out.append((p, s + 1))
    if rest > 1:
        out.append((rest, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient of n."""
    if n < 1:
        raise DomainError("euler_phi: n must be >= 1")
    result = n
    for q, _ in prime_factors(n):
        result -= result // q
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
        raise DomainError(f"p_valuation: p = {format_decimal(p)} must be >= 2")
    s, h = 0, n
    while h % p == 0:
        power, k = p, 1
        while h % power == 0:
            h //= power
            s += k
            power, k = power * power, 2 * k
    return PValuation(s, h)


def exact_quotient(total: int, divisor: int, where: str, *args) -> int:
    """total // divisor, for a division the formulas make exact; a
    remainder means the implementation itself is wrong.  Only then is its
    message built: where, formatted with args through format_decimal if any."""
    q, rem = divmod(total, divisor)
    if rem:
        where = where.format(*map(format_decimal, args)) if args else where
        raise ConsistencyError(
            f"{where}: {format_decimal(total)} is not divisible by {format_decimal(divisor)}"
        )
    return q


def require_counts(where: str, names: str, *values, low: int | None = 1) -> None:
    """Refuse values that are not all ints, bools included, and then, unless
    low is None, any below low, each with DomainError:
    "<where>: <names> must be integers, got <values>" ("an integer, got
    <value>" for one) and "<where>: <names> must be >= <low>".

    The counts and closed forms call it only once their own inline test,
    the same one, has failed: a call costs more than the test, and they
    run thousands of times per selfcheck."""
    for value in values:
        if type(value) is not int:  # bool is a subclass of int
            if len(values) > 1:
                raise DomainError(f"{where}: {names} must be integers, got {format_repr(values)}")
            raise DomainError(f"{where}: {names} must be an integer, got {format_repr(value)}")
    if low is not None and min(values) < low:
        raise DomainError(f"{where}: {names} must be >= {low}")


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


def format_decimal(n: int) -> str:
    """n in decimal, however many digits: str refuses more than
    sys.get_int_max_str_digits(), decimal.Decimal converts exactly."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported only when needed: it slows every start-up

        return str(Decimal(n))


def format_repr(value) -> str:
    """repr(value), with every int in it written by format_decimal: value
    itself, or an item of a tuple, list or namedtuple at any depth."""
    try:
        return repr(value)
    except ValueError:  # an int past str's digit limit
        if type(value) is int:
            return format_decimal(value)
        if type(value) is list:
            return "[" + ", ".join(map(format_repr, value)) + "]"
        if not isinstance(value, tuple):
            raise
        items = [format_repr(item) for item in value]
        if hasattr(value, "_fields"):  # a namedtuple
            fields = ", ".join(f"{name}={item}" for name, item in zip(value._fields, items))
            return f"{type(value).__name__}({fields})"
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, built from its factorisation,
    so n is refused where prime_factors refuses it, and when its number of
    divisors, the product of (a + 1) over its prime powers q^a, exceeds
    MAX_DIVISORS; that count is taken before any divisor is listed."""
    powers = prime_factors(n)
    count = math.prod(a + 1 for _, a in powers)
    if count > MAX_DIVISORS:
        raise MagnitudeError(f"divisors: n has {count} divisors, more than {MAX_DIVISORS}")
    out = [1]
    for q, a in powers:
        out = [d * q**k for k in range(a + 1) for d in out]
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
        raise DomainError(f"mult_order: gcd({format_decimal(p)}, {format_decimal(modulus)}) != 1")
    t = euler_phi(modulus)
    for q, _ in prime_factors(t):
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
        raise DomainError(
            f"divides_p_power_minus_one: gcd({format_decimal(h)}, {format_decimal(p)}) != 1"
        )
    return exponent % mult_order(p, h) == 0


def gcd_p_power_minus_one(a: int, p: int, exponent: int) -> int:
    """gcd(a, p^exponent - 1), with p^exponent reduced modulo a first."""
    if a < 1 or exponent < 1:
        raise DomainError("gcd_p_power_minus_one: a and exponent must be >= 1")
    return math.gcd(a, (pow(p, exponent, a) - 1) % a)
