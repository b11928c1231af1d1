"""Isomorphism-class counts of extensions over a base-field profile.

Three evaluators:

* iso_count_ef: classes with prescribed ramification e and inertia f,
  as a sum over towers split at each cyclotomic level;
* iso_count_total: classes with prescribed degree n;
* tame_iso_count: the much simpler closed form available when p does
  not divide e.

A BaseFieldProfile is validated when it is built, so the evaluators take
p and the tower on trust and re-check neither.  The cells of a table
share most of their terms, so the evaluators fetch divisor lists,
sigma_krasner, delta_count, psi_count, totients and gcds through the
profile's memo (BaseFieldProfile._once) and read the magnitude limit
once per call.
Each evaluator sums integer terms and divides once at the end (by f,
respectively n; iso_count_ef also divides each level-i term by e_i)
through arith.exact_quotient: a remainder is impossible for correct code
and raises ConsistencyError rather than being rounded.  The *_terms
variants also return the individual summands in a fixed iteration order
(ascending level, then ascending divisors) for breakdown output; the
tame variant builds its per-i summands only when asked, and at most
MAX_TAME_SUMMANDS of them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import arith, counting
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile

# The tame cross-check builds one summand per i < f; past this many it is
# refused before any is built.
MAX_TAME_SUMMANDS = 10**5


class TermEF(NamedTuple):
    """One summand of the (e, f) class count, before the leading 1/f."""

    i: int
    e1: int
    f1: int
    e2: int
    f2: int
    term: int


class TermTotal(NamedTuple):
    """One summand of the degree-n class count, before the leading 1/n."""

    i: int
    d: int
    e1: int
    f1: int
    term: int


class TermTame(NamedTuple):
    """One summand of the tame class count, before the leading 1/f."""

    i: int
    term: int


def iso_count_ef_terms(K: BaseFieldProfile, e: int, f: int) -> tuple[int, list[TermEF]]:
    """Class count for ramification e and inertia f, with its summands.

    Sums over levels 0 <= i <= v_p(e) and splittings e = e1*e2*e_i,
    f = f1*f2*f_i subject to the prime-to-p part of e2 dividing
    p^{f0*f_i*f1} - 1.  Each term is the integer
    phi(h2)*phi(f2)/e_i * sigma_krasner(p, N1, v_p(e1)) * delta_count(p, N1, v_p(e2), i)
    with N1 = n0*e_i*f_i*e1*f1.  The profile must cover levels
    0..v_p(e).
    """
    if e < 1 or f < 1:
        raise DomainError("iso_count_ef: e and f must be >= 1")
    p = K.p
    s, _ = arith.p_valuation(e, p)
    K.level(s)  # hard requirement up front, never silently padded
    n0, once = K.n0, K._once
    bits = counting.magnitude_bits()
    total = 0
    terms: list[TermEF] = []
    for i in range(s + 1):
        e_i, f_i = K.level(i)
        if e % e_i or f % f_i:
            continue
        n_i = e_i * f_i
        f_splits = [
            (f1, f2, once(arith.euler_phi, f2)) for f1, f2 in once(arith.divisor_pairs, f // f_i)
        ]
        for e1, e2 in once(arith.divisor_pairs, e // e_i):
            s1, _ = arith.p_valuation(e1, p)
            s2, h2 = arith.p_valuation(e2, p)
            weight = once(arith.euler_phi, h2)
            for f1, f2, phi_f2 in f_splits:
                if not once(arith.divides_p_power_minus_one, h2, p, K.f0 * f_i * f1):
                    continue
                n1 = n0 * n_i * e1 * f1
                term = weight * phi_f2 * once(counting.sigma_krasner, p, n1, s1, bits=bits)
                # validity makes e_i divide p^{i-1}(p-1), which divides
                # delta_count(p, ., s2, i) for i >= 1; e_0 = 1
                delta = once(counting.delta_count, p, n1, s2, i, bits=bits)
                term = arith.exact_quotient(term * delta, e_i, "iso_count_ef: level term by e_i")
                total += term
                terms.append(TermEF(i, e1, f1, e2, f2, term))
    return arith.exact_quotient(total, f, f"iso_count_ef(e={e}, f={f})"), terms


def iso_count_ef(K: BaseFieldProfile, e: int, f: int) -> int:
    """Number of isomorphism classes of extensions of K with ramification e
    and inertia f."""
    return iso_count_ef_terms(K, e, f)[0]


def iso_count_total_terms(K: BaseFieldProfile, n: int) -> tuple[int, list[TermTotal]]:
    """Class count for degree n, with its summands.

    Sums over levels 0 <= i <= v_p(n) and splittings n = d*e1*f1*n_i,
    where d is the degree of the cyclic top step.  Each term is
    e1 * psi(k, p^{f0*f_i*f1} - 1) * sigma_krasner(p, N1, v_p(e1))
    * delta_count(p, N1 + 1, v_p(d), i) with d = p^r*k, gcd(k, p) = 1
    and N1 = n0*n_i*e1*f1; psi is evaluated at gcd(k, p^{f0*f_i*f1} - 1),
    on which alone it depends.  The profile must cover levels 0..v_p(n).
    """
    if n < 1:
        raise DomainError("iso_count_total: n must be >= 1")
    p = K.p
    t, _ = arith.p_valuation(n, p)
    K.level(t)
    n0, once = K.n0, K._once
    bits = counting.magnitude_bits()
    total = 0
    terms: list[TermTotal] = []
    for i in range(t + 1):
        e_i, f_i = K.level(i)
        n_i = e_i * f_i
        if n % n_i:
            continue
        rest = n // n_i
        for d, _ in once(arith.divisor_pairs, rest):
            r, k = arith.p_valuation(d, p)
            for e1, f1 in once(arith.divisor_pairs, rest // d):
                s1, _ = arith.p_valuation(e1, p)
                n1 = n0 * n_i * e1 * f1
                g = once(arith.gcd_p_power_minus_one, k, p, K.f0 * f_i * f1)
                term = (
                    e1
                    * once(counting.psi_count, k, g)
                    * once(counting.sigma_krasner, p, n1, s1, bits=bits)
                    * once(counting.delta_count, p, n1 + 1, r, i, bits=bits)
                )
                total += term
                terms.append(TermTotal(i, d, e1, f1, term))
    return arith.exact_quotient(total, n, f"iso_count_total(n={n})"), terms


def iso_count_total(K: BaseFieldProfile, n: int) -> int:
    """Number of isomorphism classes of extensions of K of degree n."""
    return iso_count_total_terms(K, n)[0]


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
