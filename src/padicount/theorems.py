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
reads it once, and passes it down.  It reads the levels (i, e_i, f_i)
up to v_p from the profile's K._rows; only when they end before v_p
does it call K.level(v_p), which refuses a profile too short.  Its
helpers are entries of the profile's K._bound memo, which a table's
cells share: the divisor pairs of n with their p-valuations, prime-to-p
parts and totients, and, for iso_count_ef, the level sums U_i(e, f1),
stored as integers.  f2 enters only through
phi(f2), so with f * I(K, e, f) = sum of phi(f2) * U_i(e, f1) over i
and f/f_i = f1*f2, one level sum serves every f.  Both count their
summands from the split lists before the work and refuse more than
MAX_SUMMANDS with MagnitudeError.  A count alone skips every summand
whose delta layer vanishes (delta_count(p, ., s, i) = 0 for s < i), and
a level sum decides h2 | p^F - 1 at gcd(F, phi(h2)).
Terms are summed and divided once at the end (by f, respectively n;
iso_count_ef divides each level-i value by e_i > 1) through
arith.exact_quotient: a remainder means a bug and raises ConsistencyError
rather than being rounded.  The *_terms variants, which --breakdown
calls, pass the summation a list for the summands, namedtuples TermEF or
TermTotal in a fixed order (ascending level, then ascending divisors),
with the vanishing ones as term 0; only they build summand rows.  The
tame variant builds its per-i TermTame summands only when asked, and at
most MAX_SUMMANDS.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import arith, counting
from .errors import ConsistencyError, DomainError, MagnitudeError
from .profiles import BaseFieldProfile

# A count with more summands than this is refused before their work: the
# general sums count theirs from the split lists, the tame cross-check has f.
MAX_SUMMANDS = 10**5


TermEF = namedtuple("TermEF", "i e1 f1 e2 f2 term")
TermEF.__doc__ = "One summand of the (e, f) class count, before the leading 1/f."
TermTotal = namedtuple("TermTotal", "i d e1 f1 term")
TermTotal.__doc__ = "One summand of the degree-n class count, before the leading 1/n."
TermTame = namedtuple("TermTame", "i term")
TermTame.__doc__ = "One summand of the tame class count, before the leading 1/f."


def _splits(K: BaseFieldProfile, n: int) -> list[tuple[int, int, int, int, int, int, int]]:
    """Rows (d1, d2, v_p(d1), v_p(d2), h2, phi(h2), phi(d2)), n = d1*d2 ascending
    in d1 and h2 the prime-to-p part of d2; the divisors, valuations and
    totients come through the profile's memo."""
    p, memo = K.p, K._memo
    phi, valuation = memo[arith.euler_phi], memo[arith.p_valuation]
    s = valuation[n, p].s
    rows = []
    for d1, d2 in memo[arith.divisor_pairs][n]:
        s2, h2 = valuation[d2, p]
        rows.append((d1, d2, s - s2, s2, h2, phi[h2], phi[d2]))  # v_p(d1) = v_p(n) - v_p(d2)
    return rows


def _level_sum(
    K: BaseFieldProfile, i: int, e: int, f1: int, bits: int, rows: list | None = None
) -> int:
    """U_i(e, f1): the sum over the splits e/e_i = e1*e2 whose h2 divides
    p^{f0*f_i*f1} - 1 of
    phi(h2)/e_i * sigma_krasner(p, N1, v_p(e1)) * delta_count(p, N1, v_p(e2), i)
    with N1 = n0*e_i*f_i*e1*f1.  Its memo entry is this integer.  Given
    rows, each such summand is also appended as (e1, e2, value), zero ones
    included; without, the splits with v_p(e2) < i, whose delta layer is 0,
    are skipped.  The order of p mod h2 divides phi(h2), so h2 | p^F - 1 is
    decided at gcd(F, phi(h2))."""
    p, memo = K.p, K._memo
    sigma, delta = memo[counting.sigma_krasner], memo[counting.delta_count]
    divides = memo[arith.divides_p_power_minus_one]
    _, e_i, f_i = K._rows[i]
    exponent, n = K.f0 * f_i * f1, K.n0 * e_i * f_i * f1
    total = 0
    for e1, e2, s1, s2, h2, phi_h2, _ in K._bound[_splits][e // e_i]:
        if s2 < i and rows is None:
            continue
        if divides[h2, p, math.gcd(exponent, phi_h2)]:
            value = sigma[p, n * e1, s1, bits] * delta[p, n * e1, s2, i, bits] * phi_h2
            if e_i != 1:
                # validity makes e_i divide p^{i-1}(p-1), which divides
                # delta_count(p, ., s2, i) for i >= 1
                value = arith.exact_quotient(value, e_i, "iso_count_ef: level term by e_i")
            if rows is not None:
                rows.append((e1, e2, value))
            total += value
    return total


def _sum_ef(
    K: BaseFieldProfile, e: int, f: int, bits: int | None, terms: list | None = None
) -> int:
    """iso_count_ef; each summand is also appended to terms when given."""
    if not type(e) is type(f) is int or e < 1 or f < 1:  # bool is a subclass of int
        arith.require_counts("iso_count_ef", "e and f", e, f)
    bits = counting.magnitude_bits() if bits is None else bits
    s = K._memo[arith.p_valuation][e, K.p].s
    if s >= len(K._rows):
        K.level(s)  # refuses a profile too short, never silently padded
    splits, level_sum = K._bound[_splits], K._bound[_level_sum]
    count = total = 0
    for i, e_i, f_i in K._rows[: s + 1]:
        if e % e_i or f % f_i:
            continue
        # a level's splits are listed only once the levels before are counted
        e_rows, f_rows = splits[e // e_i], splits[f // f_i]
        count += len(e_rows) * len(f_rows)
        if count > MAX_SUMMANDS:
            e, f = arith.format_decimal(e), arith.format_decimal(f)
            raise MagnitudeError(
                f"iso_count_ef(e={e}, f={f}): {count} summands, more than {MAX_SUMMANDS}"
            )
        # f2 enters only through phi(f2), so one level sum serves every f
        for f1, f2, _, _, _, _, phi_f2 in f_rows:
            if terms is None:
                total += level_sum[i, e, f1, bits] * phi_f2
                continue
            rows = []
            total += _level_sum(K, i, e, f1, bits, rows) * phi_f2
            terms += (TermEF(i, e1, f1, e2, f2, v * phi_f2) for e1, e2, v in rows)
    if terms is not None:
        terms.sort(key=lambda t: (t.i, t.e1, t.f1))
    return arith.exact_quotient(total, f, "iso_count_ef(e={}, f={})", e, f)


def iso_count_ef_terms(
    K: BaseFieldProfile, e: int, f: int, bits: int | None = None
) -> tuple[int, list[TermEF]]:
    """Class count for ramification e and inertia f, with its summands.

    Sums over levels 0 <= i <= v_p(e) and splittings e = e1*e2*e_i,
    f = f1*f2*f_i subject to the prime-to-p part h2 of e2 dividing
    p^{f0*f_i*f1} - 1.  Each term is the integer
    phi(h2)*phi(f2)/e_i * sigma_krasner(p, N1, v_p(e1)) * delta_count(p, N1, v_p(e2), i)
    with N1 = n0*e_i*f_i*e1*f1.  The profile must cover levels
    0..v_p(e); bits is the magnitude limit, read from the environment
    when not given.
    """
    terms: list[TermEF] = []
    return _sum_ef(K, e, f, bits, terms), terms


def iso_count_ef(K: BaseFieldProfile, e: int, f: int, bits: int | None = None) -> int:
    """Number of isomorphism classes of extensions of K with ramification e
    and inertia f; bits is the magnitude limit, read from the environment
    when not given."""
    return _sum_ef(K, e, f, bits)


def _sum_total(
    K: BaseFieldProfile, n: int, bits: int | None, terms: list | None = None
) -> int:
    """iso_count_total; each summand is also appended to terms when given."""
    if type(n) is not int or n < 1:  # bool is a subclass of int
        arith.require_counts("iso_count_total", "n", n)
    p, n0, f0, memo = K.p, K.n0, K.f0, K._memo
    valuation = memo[arith.p_valuation]
    s = valuation[n, p].s
    if s >= len(K._rows):
        K.level(s)  # refuses a profile too short, never silently padded
    bits = counting.magnitude_bits() if bits is None else bits
    gcd, psi = memo[arith.gcd_p_power_minus_one], memo[counting.psi_count]
    sigma, delta = memo[counting.sigma_krasner], memo[counting.delta_count]
    splits = K._bound[_splits]
    count = total = 0
    for i, e_i, f_i in K._rows[: s + 1]:
        n_i = e_i * f_i
        if n % n_i:
            continue
        rest = n // n_i
        # every k below divides h, so gcd(k, p^F - 1) = gcd(k, gcd(h, p^F - 1))
        h = valuation[rest, p].h
        # d = p^r * k runs over the cofactors d2, which ascend when read backwards
        for _, d, _, r, k, _, _ in reversed(splits[rest]):
            m = rest // d
            inner = splits[m]
            count += len(inner)
            if count > MAX_SUMMANDS:
                raise MagnitudeError(
                    f"iso_count_total(n={arith.format_decimal(n)}): {count} summands, "
                    f"more than {MAX_SUMMANDS}"
                )
            if r < i and terms is None:
                continue  # delta_count(p, ., r, i) = 0
            # e1*f1 = m, so N1 = n0*n_i*m and the delta layer are the same for every row
            n1 = n0 * n_i * m
            layer = delta[p, n1 + 1, r, i, bits]
            inner_total = 0
            for e1, f1, s1, _, _, _, _ in inner:
                psi_k = psi[k, math.gcd(k, gcd[h, p, f0 * f_i * f1])]
                term = sigma[p, n1, s1, bits] * e1 * psi_k
                inner_total += term
                if terms is not None:
                    terms.append(TermTotal(i, d, e1, f1, term * layer))
            total += inner_total * layer
    return arith.exact_quotient(total, n, "iso_count_total(n={})", n)


def iso_count_total_terms(
    K: BaseFieldProfile, n: int, bits: int | None = None
) -> tuple[int, list[TermTotal]]:
    """Class count for degree n, with its summands.

    Sums over levels 0 <= i <= v_p(n) and splittings n = d*e1*f1*n_i,
    where d is the degree of the cyclic top step.  Each term is
    e1 * psi(k, p^{f0*f_i*f1} - 1) * sigma_krasner(p, N1, v_p(e1))
    * delta_count(p, N1 + 1, v_p(d), i) with d = p^r*k, gcd(k, p) = 1
    and N1 = n0*n_i*e1*f1; psi is evaluated at gcd(k, p^{f0*f_i*f1} - 1),
    on which alone it depends.  The profile must cover levels 0..v_p(n);
    bits is the magnitude limit, read from the environment when not given.
    """
    terms: list[TermTotal] = []
    return _sum_total(K, n, bits, terms), terms


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
    MAX_SUMMANDS with MagnitudeError.
    """
    if not type(e) is type(f) is int or e < 1 or f < 1:  # bool is a subclass of int
        arith.require_counts("tame_iso_count", "e and f", e, f)
    p = K.p
    if e % p == 0:
        raise DomainError(
            f"tame_iso_count requires p not dividing e; {p} | {arith.format_decimal(e)}"
        )
    if cross_check and f > MAX_SUMMANDS:
        raise MagnitudeError(
            f"tame_iso_count: cross-check of f = {arith.format_decimal(f)} summands, "
            f"more than {MAX_SUMMANDS}"
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
            e, f, total, alt = map(arith.format_decimal, (e, f, total, alt))
            raise ConsistencyError(
                f"tame_iso_count(e={e}, f={f}): divisor-sum {total} != gcd-sum {alt}"
            )
    return arith.exact_quotient(total, f, "tame_iso_count(e={}, f={})", e, f), terms


def tame_iso_count(K: BaseFieldProfile, e: int, f: int) -> int:
    """Number of isomorphism classes with ramification e and inertia f when
    p does not divide e: the divisor sum of tame_iso_count_terms alone,
    which is also where the gcd-sum cross-check is asked for."""
    return tame_iso_count_terms(K, e, f)[0]
