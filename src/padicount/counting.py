"""Closed-form counts: Krasner extension counts and cyclic-extension counts.

All arithmetic is exact; no floating point is used anywhere.  Powers pass
through a magnitude guard that turns runaway inputs into a clean
MagnitudeError instead of exhausting memory.  The guarded closed forms
(sigma_krasner, delta_count, pi_count), krasner_count and the cyclic
counts take its limit as bits: PADICOUNT_MAX_BITS for None, else an int
>= 1 (limit_bits).  The cyclic counts pass it to pi_count, and ask about
p^f0 - 1 only through arith.gcd_p_power_minus_one.  Every division goes
through arith.exact_quotient; a remainder means the implementation
itself is wrong, so it raises ConsistencyError.
"""

from __future__ import annotations

import math
import os

from . import arith
from .errors import DomainError, MagnitudeError
from .profiles import BaseFieldProfile

DEFAULT_MAX_BITS = 1 << 20
MAX_BITS_ENV = "PADICOUNT_MAX_BITS"


def magnitude_bits() -> int:
    """Current bit-length ceiling for any computed power."""
    raw = os.environ.get(MAX_BITS_ENV)
    if raw is None:
        return DEFAULT_MAX_BITS
    value = arith.parse_decimal(raw)
    if value is None or value < 1:
        raise DomainError(f"{MAX_BITS_ENV} must be a positive integer, got {raw!r}")
    return value


def limit_bits(where: str, bits) -> int:
    """magnitude_bits() for None, else bits, refused with DomainError unless
    an int >= 1.  Callers test inline and call this only when that fails."""
    if bits is None:
        return magnitude_bits()
    arith.require_counts(where, "bits", bits)
    return bits


def guarded_power(base: int, exponent: int, bits: int) -> int:
    """base ** exponent, refused when its bit-length would exceed bits.

    Decided exactly, in integers: base >= 2^(b-1) with b its bit-length,
    so (b-1)*exponent >= bits already means more than bits bits.  Below
    that the power has fewer than 2*bits bits, and is computed and
    measured.
    """
    if exponent < 0:
        raise DomainError(f"guarded_power: exponent {arith.format_decimal(exponent)} must be >= 0")
    if (base.bit_length() - 1) * exponent < bits:
        value = base**exponent
        if value.bit_length() <= bits:
            return value
    power = f"{arith.format_decimal(base)}^{arith.format_decimal(exponent)}"
    limit = arith.format_decimal(bits)
    raise MagnitudeError(f"{power} exceeds the magnitude limit of {limit} bits")


def sigma_krasner(p: int, N: int, s: int, bits: int | None = None) -> int:
    """The ramified part of the Krasner count.

    sum_{i=0}^{s} p^i * (p^{eps(i)*N} - p^{eps(i-1)*N}), where eps(0) = 0,
    eps(i) = 1/p + ... + 1/p^i, and the i = -1 power contributes 0.  Each
    exponent is evaluated exactly as (N / p^i) * (1 + p + ... + p^{i-1}),
    which is integral because p^s must divide N.  The caller's profile
    vouches that p is prime; only p >= 2 is checked here, because the
    exponent divides by p - 1.
    """
    if not type(p) is type(N) is type(s) is int:  # bool is a subclass of int
        arith.require_counts("sigma_krasner", "p, N and s", p, N, s, low=None)
    if N < 1:
        raise DomainError("sigma_krasner: N must be >= 1")
    if s < 0:
        raise DomainError("sigma_krasner: s must be >= 0")
    if p < 2:
        raise DomainError(f"sigma_krasner: p = {arith.format_decimal(p)} must be >= 2")
    if N % p**s:
        raise DomainError(
            f"sigma_krasner: p^s = {arith.format_decimal(p**s)} must divide "
            f"N = {arith.format_decimal(N)}"
        )
    if type(bits) is not int or bits < 1:  # bool is a subclass of int
        bits = limit_bits("sigma_krasner", bits)
    total = 0
    prev = 0
    for i in range(s + 1):
        exponent = (N // p**i) * ((p**i - 1) // (p - 1))
        cur = guarded_power(p, exponent, bits)
        total += p**i * (cur - prev)
        prev = cur
    return total


def krasner_count(K: BaseFieldProfile, e: int, f: int, bits: int | None = None) -> int:
    """Number of extensions of K with ramification e and inertia f in a
    fixed algebraic closure, fields counted individually rather than up to
    isomorphism: e * sigma_krasner(p, n0*e*f, v_p(e)), both fetched through
    K's memo, where the class counts find the same values."""
    if not type(e) is type(f) is int or e < 1 or f < 1:  # bool is a subclass of int
        arith.require_counts("krasner_count", "e and f", e, f)
    if type(bits) is not int or bits < 1:
        bits = limit_bits("krasner_count", bits)
    p, memo = K.p, K._memo
    return e * memo[sigma_krasner][p, K.n0 * e * f, memo[arith.p_valuation][e, p].s, bits]


def pi_count(p: int, m: int, s: int, xi: int, bits: int | None = None) -> int:
    """Number of elements of order p^s in C_{p^r}^m x C_{p^{min(xi,r)}}.

    Independent of r as long as r >= s: 1 for s = 0, otherwise
    p^{m*s + min(xi,s)} - p^{m*(s-1) + min(xi,s-1)}.
    """
    if not type(p) is type(m) is type(s) is type(xi) is int:  # bool is a subclass of int
        arith.require_counts("pi_count", "p, m, s and xi", p, m, s, xi, low=None)
    if type(bits) is not int or bits < 1:
        bits = limit_bits("pi_count", bits)
    if s == 0:
        return 1
    lo, hi = m * (s - 1) + min(xi, s - 1), m * s + min(xi, s)
    return guarded_power(p, hi, bits) - guarded_power(p, lo, bits)


def delta_count(p: int, m: int, s: int, i: int, bits: int | None = None) -> int:
    """Layered difference of pi_count in its last argument.

    Equals pi_count(p, m, s, 0) for i = 0 and
    pi_count(p, m, s, i) - pi_count(p, m, s, i-1) for i > 0, as a closed
    form: the main term plus one correction layer per cyclotomic level.
    """
    if not type(p) is type(m) is type(s) is type(i) is int:  # bool is a subclass of int
        arith.require_counts("delta_count", "p, m, s and i", p, m, s, i, low=None)
    if type(bits) is not int or bits < 1:
        bits = limit_bits("delta_count", bits)
    if i > s:
        return 0
    if s == 0:
        return 1
    if i == 0:
        return (guarded_power(p, m, bits) - 1) * guarded_power(p, m * (s - 1), bits)
    if i < s:
        return (p - 1) * (guarded_power(p, m, bits) - 1) * guarded_power(p, m * (s - 1) + i - 1, bits)
    return (p - 1) * guarded_power(p, m * s + s - 1, bits)


def psi_count(u: int, v: int) -> int:
    """Number of elements of order u in C_u x C_v.

    u*(u,v) * prod over primes l | u of (1 - 1/l) when l | u/(u,v), else
    (1 - 1/l^2), evaluated as an exact integer quotient.
    """
    if not type(u) is type(v) is int:  # bool is a subclass of int
        arith.require_counts("psi_count", "u and v", u, v, low=None)
    if u < 1 or v < 0:
        raise DomainError("psi_count: u must be >= 1 and v >= 0")
    g = math.gcd(u, v)
    w = u // g
    num = u * g
    den = 1
    for ell, _ in arith.prime_factors(u):
        if w % ell == 0:
            num *= ell - 1
            den *= ell
        else:
            num *= ell * ell - 1
            den *= ell * ell
    return arith.exact_quotient(num, den, "psi_count({}, {})", u, v)


def cyclic_count_ef(K: BaseFieldProfile, e: int, f: int, bits: int | None = None) -> int:
    """Number of cyclic extensions of K with ramification e and inertia f.

    Zero when the prime-to-p part h of e does not divide p^f0 - 1,
    else e*phi(h)*phi(f)/phi(e*f) * pi_count(p, n0, v_p(e), xi).  K must
    be deep enough to determine xi, even where the count is zero.
    """
    if not type(e) is type(f) is int or e < 1 or f < 1:  # bool is a subclass of int
        arith.require_counts("cyclic_count_ef", "e and f", e, f)
    if type(bits) is not int or bits < 1:
        bits = limit_bits("cyclic_count_ef", bits)
    xi = K.xi
    s, h = arith.p_valuation(e, K.p)
    if arith.gcd_p_power_minus_one(h, K.p, K.f0) != h:
        return 0
    num = e * arith.euler_phi(h) * arith.euler_phi(f) * pi_count(K.p, K.n0, s, xi, bits)
    return arith.exact_quotient(num, arith.euler_phi(e * f), "cyclic_count_ef({}, {})", e, f)


def cyclic_count_total(K: BaseFieldProfile, d: int, bits: int | None = None) -> int:
    """Number of cyclic extensions of K of degree d, all (e, f) combined.

    With d = p^r * k, gcd(k, p) = 1:
    psi(k, p^f0 - 1) / phi(d) * pi_count(p, n0+1, r, xi).  psi depends
    on its second argument only through its gcd with k, so that gcd is
    passed instead of the power.
    """
    if type(d) is not int or d < 1:  # bool is a subclass of int
        arith.require_counts("cyclic_count_total", "d", d)
    if type(bits) is not int or bits < 1:
        bits = limit_bits("cyclic_count_total", bits)
    xi = K.xi
    r, k = arith.p_valuation(d, K.p)
    psi = psi_count(k, arith.gcd_p_power_minus_one(k, K.p, K.f0))
    num = psi * pi_count(K.p, K.n0 + 1, r, xi, bits)
    return arith.exact_quotient(num, arith.euler_phi(d), "cyclic_count_total({})", d)
