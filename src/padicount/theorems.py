"""Isomorphism-class counts of extensions over a base-field profile.

Three evaluators:

* iso_count_ef: classes with prescribed ramification e and inertia f,
  as a sum over towers split at each cyclotomic level;
* iso_count_total: classes with prescribed degree n;
* tame_iso_count: the much simpler closed form available when p does
  not divide e.

A BaseFieldProfile is validated when it is built, so the evaluators take
p and the tower on trust and re-check neither.  The first two each run
one private summation: it takes the magnitude limit from its caller, or
reads it once, and passes it down; it fetches the memo's dict for each
function once and takes the divisor pairs of n with their p-valuations,
prime-to-p parts and totients from one entry per (n, p) in the profile's
memo, which a table's cells share, so a summand costs only its memo
subscripts (the divisibility test, or the gcd and psi_count;
sigma_krasner and delta_count).
Terms are summed and divided once at the end (by f, respectively n;
iso_count_ef divides each level-i term by e_i > 1) through
arith.exact_quotient: a remainder means a bug and raises ConsistencyError
rather than being rounded.  The *_terms variants pass the summation a
list for the summands, namedtuples TermEF or TermTotal in a fixed order
(ascending level, then ascending divisors); the tame variant builds its
per-i TermTame summands only when asked, and at most MAX_TAME_SUMMANDS.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import arith, counting
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile

# The tame cross-check builds one summand per i < f; past this many it is
# refused before any is built.
MAX_TAME_SUMMANDS = 10**5


TermEF = namedtuple("TermEF", "i e1 f1 e2 f2 term")
TermEF.__doc__ = "One summand of the (e, f) class count, before the leading 1/f."
TermTotal = namedtuple("TermTotal", "i d e1 f1 term")
TermTotal.__doc__ = "One summand of the degree-n class count, before the leading 1/n."
TermTame = namedtuple("TermTame", "i term")
TermTame.__doc__ = "One summand of the tame class count, before the leading 1/f."


def _splits(n: int, p: int, memo) -> list[tuple[int, int, int, int, int, int, int]]:
    """Rows (d1, d2, v_p(d1), v_p(d2), h2, phi(h2), phi(d2)), n = d1*d2 ascending
    in d1 and h2 the prime-to-p part of d2.  Fetched as memo[_splits][n, p, memo],
    so n is listed and the totients found through the profile's memo; the key
    refers back to that memo, a cycle that the garbage collector frees."""
    phi = memo[arith.euler_phi]
    rows = []
    for d1, d2 in memo[arith.divisor_pairs][n]:
        s2, h2 = arith.p_valuation(d2, p)
        rows.append((d1, d2, arith.p_valuation(d1, p).s, s2, h2, phi[h2], phi[d2]))
    return rows


def _sum_ef(
    K: BaseFieldProfile, e: int, f: int, bits: int | None, terms: list | None = None
) -> int:
    """iso_count_ef; each summand is also appended to terms when given."""
    if e < 1 or f < 1:
        raise DomainError("iso_count_ef: e and f must be >= 1")
    p, n0, f0, memo = K.p, K.n0, K.f0, K._memo
    s, _ = arith.p_valuation(e, p)
    K.level(s)  # hard requirement up front, never silently padded
    bits = counting.magnitude_bits() if bits is None else bits
    sigma, delta = memo[counting.sigma_krasner], memo[counting.delta_count]
    divides, splits = memo[arith.divides_p_power_minus_one], memo[_splits]
    total = 0
    for i in range(s + 1):
        e_i, f_i = K.level(i)
        if e % e_i or f % f_i:
            continue
        f_rows = splits[f // f_i, p, memo]
        for e1, e2, s1, s2, h2, phi_h2, _ in splits[e // e_i, p, memo]:
            for f1, f2, _, _, _, _, phi_f2 in f_rows:
                if not divides[h2, p, f0 * f_i * f1]:
                    continue
                n1 = n0 * e_i * f_i * e1 * f1
                term = sigma[p, n1, s1, bits] * delta[p, n1, s2, i, bits]
                term *= phi_h2 * phi_f2
                if e_i != 1:
                    # validity makes e_i divide p^{i-1}(p-1), which divides
                    # delta_count(p, ., s2, i) for i >= 1
                    term = arith.exact_quotient(term, e_i, "iso_count_ef: level term by e_i")
                total += term
                if terms is not None:
                    terms.append(TermEF(i, e1, f1, e2, f2, term))
    return arith.exact_quotient(total, f, f"iso_count_ef(e={e}, f={f})")


def iso_count_ef_terms(K: BaseFieldProfile, e: int, f: int) -> tuple[int, list[TermEF]]:
    """Class count for ramification e and inertia f, with its summands.

    Sums over levels 0 <= i <= v_p(e) and splittings e = e1*e2*e_i,
    f = f1*f2*f_i subject to the prime-to-p part h2 of e2 dividing
    p^{f0*f_i*f1} - 1.  Each term is the integer
    phi(h2)*phi(f2)/e_i * sigma_krasner(p, N1, v_p(e1)) * delta_count(p, N1, v_p(e2), i)
    with N1 = n0*e_i*f_i*e1*f1.  The profile must cover levels
    0..v_p(e).
    """
    terms: list[TermEF] = []
    return _sum_ef(K, e, f, None, terms), terms


def iso_count_ef(K: BaseFieldProfile, e: int, f: int, bits: int | None = None) -> int:
    """Number of isomorphism classes of extensions of K with ramification e
    and inertia f; bits is the magnitude limit, read from the environment
    when not given."""
    return _sum_ef(K, e, f, bits)


def _sum_total(
    K: BaseFieldProfile, n: int, bits: int | None, terms: list | None = None
) -> int:
    """iso_count_total; each summand is also appended to terms when given."""
    if n < 1:
        raise DomainError("iso_count_total: n must be >= 1")
    p, n0, f0, memo = K.p, K.n0, K.f0, K._memo
    t, _ = arith.p_valuation(n, p)
    K.level(t)
    bits = counting.magnitude_bits() if bits is None else bits
    gcd, psi = memo[arith.gcd_p_power_minus_one], memo[counting.psi_count]
    sigma, delta = memo[counting.sigma_krasner], memo[counting.delta_count]
    splits = memo[_splits]
    total = 0
    for i in range(t + 1):
        e_i, f_i = K.level(i)
        n_i = e_i * f_i
        if n % n_i:
            continue
        rest = n // n_i
        # d = p^r * k runs over the cofactors d2, which ascend when read backwards
        for _, d, _, r, k, _, _ in reversed(splits[rest, p, memo]):
            for e1, f1, s1, _, _, _, _ in splits[rest // d, p, memo]:
                n1 = n0 * n_i * e1 * f1
                psi_k = psi[k, gcd[k, p, f0 * f_i * f1]]
                term = sigma[p, n1, s1, bits] * delta[p, n1 + 1, r, i, bits]
                term *= e1 * psi_k
                total += term
                if terms is not None:
                    terms.append(TermTotal(i, d, e1, f1, term))
    return arith.exact_quotient(total, n, f"iso_count_total(n={n})")


def iso_count_total_terms(K: BaseFieldProfile, n: int) -> tuple[int, list[TermTotal]]:
    """Class count for degree n, with its summands.

    Sums over levels 0 <= i <= v_p(n) and splittings n = d*e1*f1*n_i,
    where d is the degree of the cyclic top step.  Each term is
    e1 * psi(k, p^{f0*f_i*f1} - 1) * sigma_krasner(p, N1, v_p(e1))
    * delta_count(p, N1 + 1, v_p(d), i) with d = p^r*k, gcd(k, p) = 1
    and N1 = n0*n_i*e1*f1; psi is evaluated at gcd(k, p^{f0*f_i*f1} - 1),
    on which alone it depends.  The profile must cover levels 0..v_p(n).
    """
    terms: list[TermTotal] = []
    return _sum_total(K, n, None, terms), terms


def iso_count_total(K: BaseFieldProfile, n: int, bits: int | None = None) -> int:
    """Number of isomorphism classes of extensions of K of degree n; bits is
    the magnitude limit, read from the environment when not given."""
    return _sum_total(K, n, bits)


def tame_iso_count_terms(
    K: BaseFieldProfile, e: int, f: int, cross_check: bool = False
) -> tuple[int, list[TermTame] | None]:
    """Tame class count (p not dividing e), with its summands on request.

    The count is the divisor sum
    (1/f) * sum_{f1*f2=f} phi(f2) * gcd(e, p^{f0*f1} - 1),
    which costs O(d(f)).  With cross_check=True the equivalent gcd sum
    (1/f) * sum_{i=0}^{f-1} gcd(e, p^{f0*gcd(f,i)} - 1), where gcd(f, 0)
    is f, is evaluated as well, one summand per i, any disagreement
    raises ConsistencyError, and those f summands are returned; without
    it the summands are None.  The cross-check refuses f past
    MAX_TAME_SUMMANDS with MagnitudeError.
    """
    if e < 1 or f < 1:
        raise DomainError("tame_iso_count: e and f must be >= 1")
    p = K.p
    s, _ = arith.p_valuation(e, p)
    if s:
        raise DomainError(f"tame_iso_count requires p not dividing e; {p} | {e}")
    if cross_check and f > MAX_TAME_SUMMANDS:
        raise MagnitudeError(
            f"tame_iso_count: cross-check of f = {f} summands, more than {MAX_TAME_SUMMANDS}"
        )
    total = sum(
        arith.euler_phi(f2) * arith.gcd_p_power_minus_one(e, p, K.f0 * f1)
        for f1, f2 in arith.divisor_pairs(f)
    )
    terms = None
    if cross_check:
        terms = [
            TermTame(i, arith.gcd_p_power_minus_one(e, p, K.f0 * math.gcd(f, i)))
            for i in range(f)
        ]
        alt = sum(t.term for t in terms)
        if alt != total:
            raise ConsistencyError(
                f"tame_iso_count(e={e}, f={f}): divisor-sum {total} != gcd-sum {alt}"
            )
    return arith.exact_quotient(total, f, f"tame_iso_count(e={e}, f={f})"), terms


def tame_iso_count(K: BaseFieldProfile, e: int, f: int, cross_check: bool = False) -> int:
    """Number of isomorphism classes with ramification e and inertia f when
    p does not divide e."""
    return tame_iso_count_terms(K, e, f, cross_check=cross_check)[0]
