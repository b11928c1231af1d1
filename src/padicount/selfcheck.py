"""Self-verification suites.

Every closed form in the package is replayed here against an independent
brute-force oracle or a cross-formula identity:

* lemma: the chain-count identity on a zoo of Cayley tables;
* pi-oracle / psi-oracle: element-order counts by full enumeration;
* delta-telescoping: the layered differences re-sum to the element count;
* dual-oracle: cyclic-extension counts against cyclic-subgroup
  enumeration in the dual-side product group;
* cyclic-decomposition: per-(e, f) cyclic counts sum to the total;
* remark-equivalence: the tame closed form against the general evaluator;
* theorem-consistency: degree totals against sums over (e, f);
* sandwich: class counts versus extension counts in a fixed closure;
* golden: frozen hand-derived values.

The suites run on a fixed "full" grid (the acceptance grid) or a reduced
"small" one.  No group either builds is past the oracles' limits, so no
check is skipped.  Each check is one guarded block,
``with result: ... result.record(passed, lambda: message)``; the
counterexample is formatted only when the check fails.  An internal
exactness violation (ConsistencyError) inside the block is recorded as
that check's failure and the suite goes on, so a corrupted build still
gives an orderly failing report instead of a crash.

One run builds each base field once, and its suites share the field and
its memo (see run_selfcheck); a suite called on its own builds its own.
The psi and dual suites enumerate each distinct group once per call.
"""

from __future__ import annotations

import functools

from . import arith, counting, oracles, theorems
from .errors import ConsistencyError, DomainError
from .profiles import BaseFieldProfile, CyclotomicDatum, qp_profile
from .profiles import cyclotomic_profile, unramified_profile


class SuiteResult:
    def __init__(self, name: str):
        self.name, self.checks, self.fail_count, self.failures = name, 0, 0, []

    @property
    def ok(self) -> bool:
        return self.fail_count == 0

    def record(self, passed: bool, message) -> None:
        """Count one check; message() builds its counterexample, called only
        for the first five failures."""
        self.checks += 1
        if not passed:
            self.fail_count += 1
            if len(self.failures) < 5:
                self.failures.append(message())

    def __enter__(self) -> SuiteResult:
        return self

    def __exit__(self, kind, exc, traceback) -> bool:
        """A ConsistencyError inside a check's block is that check's failure."""
        if isinstance(exc, ConsistencyError):
            self.record(False, lambda: f"internal exactness violation: {exc}")
            return True
        return False


def _partitions(k: int):
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def abelian_factor_lists(bound: int) -> list[tuple[int, ...]]:
    """Elementary-divisor factor lists of every non-cyclic abelian group
    of order <= bound, one per isomorphism class."""
    out = []
    for n in range(4, bound + 1):
        powers = arith.prime_factors(n)
        shapes = [()]
        for p, a in powers:
            shapes = [
                shape + tuple(p**part for part in partition)
                for shape in shapes
                for partition in _partitions(a)
            ]
        for shape in shapes:
            if len(shape) > len(powers):  # some prime split in >= 2 parts: non-cyclic
                out.append(tuple(sorted(shape, reverse=True)))
    return sorted(set(out), key=lambda t: (len(t), t))


def lemma_group_zoo(small: bool = False) -> list[oracles.GroupTable]:
    """Cayley tables for the chain-count suite, of order at most 48 (small: 16)."""
    cyclic_max, abelian_max, dihedral_max = (10, 16, 6) if small else (24, 48, 12)
    groups = [oracles.cyclic(n) for n in range(1, cyclic_max + 1)]
    groups += [oracles.abelian(*factors) for factors in abelian_factor_lists(abelian_max)]
    groups += [oracles.dihedral(n) for n in range(3, dihedral_max + 1)]
    groups += [oracles.quaternion8(), oracles.symmetric(3)]
    if not small:
        groups.append(oracles.symmetric(4))
    groups.append(oracles.alternating(4))
    return groups


def lemma_suite(small: bool = False) -> SuiteResult:
    result = SuiteResult("lemma")
    for G in lemma_group_zoo(small):
        for n in arith.divisors(G.order):
            with result:
                report = oracles.lemma_check(G, n)
                result.record(report.equal, lambda: (
                    f"chain-count identity fails for {G.name}, n={n}: "
                    f"classes={report.lhs}, weighted chains/n={report.rhs}"
                ))
    return result


def pi_oracle_suite(small: bool = False, bits: int | None = None) -> SuiteResult:
    result = SuiteResult("pi-oracle")
    top = 2 if small else 3
    for p in (2, 3):
        for m in range(1, top + 1):
            for r in range(1, top + 1):
                for xi in range(0, top + 1):
                    shape = (p**r,) * m + (p ** min(xi, r),)
                    hist = oracles.AbelianGroup(shape).order_histogram()
                    for s in range(0, r + 1):
                        with result:
                            got = counting.pi_count(p, m, s, xi, bits)
                            want = hist.get(p**s, 0)
                            result.record(got == want, lambda: (
                                f"pi_count({p},{m},{s},{xi}) = {got} but enumeration "
                                f"with r={r} finds {want}"
                            ))
    return result


def psi_oracle_suite(small: bool = False) -> SuiteResult:
    """psi_count(u, v) against C_u x C_v's element orders; C_v x C_u has the
    same, so each unordered pair is enumerated once, and each (u, v) checked."""
    result = SuiteResult("psi-oracle")
    bound = 12 if small else 30
    histograms = {}  # (u, v) with u <= v -> the order histogram of C_u x C_v
    for u in range(1, bound + 1):
        for v in range(1, bound + 1):
            if u <= v:
                histograms[u, v] = oracles.AbelianGroup((u, v)).order_histogram()
            hist = histograms[min(u, v), max(u, v)]
            with result:
                got = counting.psi_count(u, v)
                want = hist.get(u, 0)
                result.record(got == want, lambda: (
                    f"psi_count({u},{v}) = {got} but enumeration of C_{u} x C_{v} finds {want}"
                ))
    return result


def delta_telescoping_suite(bits: int | None = None) -> SuiteResult:
    result = SuiteResult("delta-telescoping")
    for p in (2, 3, 5):
        for m in range(1, 4):
            for s in range(0, 4):
                for j in range(0, s + 1):
                    with result:
                        partial = sum(counting.delta_count(p, m, s, i, bits) for i in range(j + 1))
                        want = counting.pi_count(p, m, s, j, bits)
                        result.record(partial == want, lambda: (
                            f"delta rows (p={p},m={m},s={s}) sum to {partial} "
                            f"through i={j}, pi gives {want}"
                        ))
                for xi in range(s, s + 3):
                    with result:
                        full = sum(counting.delta_count(p, m, s, i, bits) for i in range(s + 1))
                        want = counting.pi_count(p, m, s, xi, bits)
                        result.record(full == want, lambda: (
                            f"delta rows (p={p},m={m},s={s}) sum to {full}, "
                            f"pi with xi={xi} gives {want}"
                        ))
    return result


def _cyclic_profiles(qp=qp_profile) -> list[BaseFieldProfile]:
    """Nine base fields with n0 <= 2 and xi <= 1, through level 2, Q_p built
    by qp: Q_p, Q_3(zeta_3), each Q_p's unramified quadratic and two ramified
    quadratics outside that family.  Over Q_2(sqrt 2), K(zeta_4) = Q_2(zeta_8)
    is ramified quadratic; over Q_3(sqrt 3), K(zeta_3) = K(sqrt -1) is
    unramified, as in tests/data/ramified_quadratic_q3.json."""
    Datum, q2, q3, q5 = CyclotomicDatum, qp(2, 2), qp(3, 2), qp(5, 2)
    return [
        q2, BaseFieldProfile(2, 2, 1, (Datum(1, 1, 1), Datum(2, 2, 1))), unramified_profile(q2, 2),
        q3, BaseFieldProfile(3, 2, 1, (Datum(1, 1, 2), Datum(2, 3, 2))), unramified_profile(q3, 2),
        cyclotomic_profile(3, 1, 2), q5, unramified_profile(q5, 2),
    ]


def dual_oracle_suite(small: bool = False, bits: int | None = None, fields=None) -> SuiteResult:
    """cyclic_count_ef against dual groups, each counted once, over fields or _cyclic_profiles()."""
    result = SuiteResult("dual-oracle")
    d_max = 8 if small else 12
    counts = {}  # dual factors -> by_meet, counted in a check's guard, kept if it returns
    for K in fields or _cyclic_profiles():
        for d in range(1, d_max + 1):
            Ghat = oracles.dual_group(K, d)
            by_meet = counts.get(Ghat.factors)
            for e, f in arith.divisor_pairs(d):
                with result:
                    if by_meet is None:
                        by_meet = counts[Ghat.factors] = oracles.dual_cyclic_subgroup_count(Ghat)
                    got, want = counting.cyclic_count_ef(K, e, f, bits), by_meet[f]
                    result.record(got == want, lambda: (
                        f"cyclic_count_ef(p={K.p},n0={K.n0},f0={K.f0},xi={K.xi}; "
                        f"e={e},f={f}) = {got} but subgroup enumeration finds {want}"
                    ))
    return result


def cyclic_decomposition_suite(
    small: bool = False, bits: int | None = None, fields=None
) -> SuiteResult:
    result = SuiteResult("cyclic-decomposition")
    d_max = 12 if small else 24
    for K in fields or _cyclic_profiles():
        for d in range(1, d_max + 1):
            with result:
                parts = sum(
                    counting.cyclic_count_ef(K, e, f, bits) for e, f in arith.divisor_pairs(d)
                )
                total = counting.cyclic_count_total(K, d, bits)
                result.record(parts == total, lambda: (
                    f"sum of cyclic_count_ef over ef={d} is {parts}, "
                    f"cyclic_count_total gives {total} "
                    f"(p={K.p},n0={K.n0},f0={K.f0},xi={K.xi})"
                ))
    return result


def _tame_grid(small: bool, qp=qp_profile):
    """(K, e, f) over Q_p = qp(p, 0) for p in {3, 5, 7} (small: {3, 5}), p
    not dividing e <= 10 (small: 6), f <= 6 (small: 4)."""
    primes = (3, 5) if small else (3, 5, 7)
    e_max = 6 if small else 10
    f_max = 4 if small else 6
    for p in primes:
        K = qp(p, 0)
        for e in range(1, e_max + 1):
            if e % p:
                for f in range(1, f_max + 1):
                    yield K, e, f


def _degree_grid(small: bool, qp=qp_profile):
    """(K, n) over Q_2 and Q_3 for n <= 12 (small: 8), one K = qp(p, depth)
    per prime, as deep as its largest n needs."""
    degrees = range(1, (8 if small else 12) + 1)
    for p in (2, 3):
        K = qp(p, max(arith.p_valuation(n, p).s for n in degrees))
        for n in degrees:
            yield K, n


def remark_equivalence_suite(
    small: bool = False, bits: int | None = None, qp=qp_profile
) -> SuiteResult:
    result = SuiteResult("remark-equivalence")
    for K, e, f in _tame_grid(small, qp):
        with result:
            tame, _ = theorems.tame_iso_count_terms(K, e, f, cross_check=True)
            general = theorems.iso_count_ef(K, e, f, bits)
            result.record(tame == general, lambda: (
                f"tame_iso_count(Q_{K.p},e={e},f={f}) = {tame} but iso_count_ef gives {general}"
            ))
    return result


def theorem_consistency_suite(
    small: bool = False, bits: int | None = None, qp=qp_profile
) -> SuiteResult:
    result = SuiteResult("theorem-consistency")
    for K, n in _degree_grid(small, qp):
        with result:
            total = theorems.iso_count_total(K, n, bits)
            parts = sum(theorems.iso_count_ef(K, e, f, bits) for e, f in arith.divisor_pairs(n))
            result.record(total == parts, lambda: (
                f"iso_count_total(Q_{K.p},n={n}) = {total} but the (e,f) cells sum to {parts}"
            ))
    return result


def sandwich_suite(
    small: bool = False, bits: int | None = None, qp=qp_profile
) -> SuiteResult:
    result = SuiteResult("sandwich")
    cells = [(K, e, f) for K, n in _degree_grid(small, qp) for e, f in arith.divisor_pairs(n)]
    for K, e, f in cells + list(_tame_grid(small, qp)):
        with result:
            classes = theorems.iso_count_ef(K, e, f, bits)
            fields = counting.krasner_count(K, e, f, bits)
            result.record(classes <= fields <= e * f * classes, lambda: (
                f"sandwich fails over Q_{K.p} at (e={e},f={f}): "
                f"classes={classes}, fields={fields}"
            ))
    return result


def golden_suite(bits: int | None = None, qp=qp_profile) -> SuiteResult:
    result = SuiteResult("golden")
    cases = [
        ("N(Q_2,e=2,f=1)", lambda: counting.krasner_count(qp(2, 0), 2, 1, bits), 6),
        ("N(Q_3,e=3,f=1)", lambda: counting.krasner_count(qp(3, 0), 3, 1, bits), 21),
        ("I(Q_2,e=2,f=1)", lambda: theorems.iso_count_ef(qp(2, 1), 2, 1, bits), 6),
        ("I(Q_3,e=3,f=1)", lambda: theorems.iso_count_ef(qp(3, 1), 3, 1, bits), 9),
        ("I(Q_2,n=2)", lambda: theorems.iso_count_total(qp(2, 1), 2, bits), 7),
        ("I(Q_3,n=3)", lambda: theorems.iso_count_total(qp(3, 1), 3, bits), 10),
        ("I(Q_5,e=2,f=1)", lambda: theorems.tame_iso_count(qp(5, 0), 2, 1), 2),
        ("C(Q_2,e=2,f=1)", lambda: counting.cyclic_count_ef(qp(2, 2), 2, 1, bits), 6),
        ("C(Q_2,d=2)", lambda: counting.cyclic_count_total(qp(2, 2), 2, bits), 7),
        ("C(Q_3,d=3)", lambda: counting.cyclic_count_total(qp(3, 1), 3, bits), 4),
    ]
    for label, compute, want in cases:
        with result:
            got = compute()
            result.record(got == want, lambda: f"{label} = {got}, expected {want}")
    return result


def run_selfcheck(grid: str = "full", bits: int | None = None) -> list[SuiteResult]:
    """Every suite's result.  bits is the magnitude limit of every suite's
    counts, read from the environment once when None.  The suites share,
    for this run only, one Q_p builder that keeps what it builds and one
    list of the cyclic suites' fields."""
    if grid not in ("small", "full"):
        raise DomainError(f"unknown grid {arith.format_repr(grid)}, expected 'small' or 'full'")
    if type(bits) is not int or bits < 1:  # bool is a subclass of int
        bits = counting.limit_bits("run_selfcheck", bits)
    small = grid == "small"
    qp = functools.cache(qp_profile)
    fields = _cyclic_profiles(qp)
    return [
        lemma_suite(small=small),
        pi_oracle_suite(small=small, bits=bits),
        psi_oracle_suite(small=small),
        delta_telescoping_suite(bits=bits),
        dual_oracle_suite(small=small, bits=bits, fields=fields),
        cyclic_decomposition_suite(small=small, bits=bits, fields=fields),
        remark_equivalence_suite(small=small, bits=bits, qp=qp),
        theorem_consistency_suite(small=small, bits=bits, qp=qp),
        sandwich_suite(small=small, bits=bits, qp=qp),
        golden_suite(bits=bits, qp=qp),
    ]
