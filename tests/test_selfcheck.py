from collections import Counter

import pytest

from padicount import arith, counting, oracles, selfcheck, theorems
from padicount.cli import main
from padicount.errors import ConsistencyError, DomainError
from padicount.profiles import BaseFieldProfile, CyclotomicDatum


def test_small_grid_passes():
    results = selfcheck.run_selfcheck(grid="small")
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
    assert {r.name for r in results} == {
        "lemma",
        "pi-oracle",
        "psi-oracle",
        "delta-telescoping",
        "dual-oracle",
        "cyclic-decomposition",
        "remark-equivalence",
        "theorem-consistency",
        "sandwich",
        "golden",
    }
    assert all(r.checks > 0 for r in results)


def test_the_cyclic_suites_read_the_same_nine_towers():
    # written out, so a builder that moved a level shows here
    D = CyclotomicDatum
    assert selfcheck._cyclic_profiles() == [
        BaseFieldProfile(2, 1, 1, (D(1, 1, 1), D(2, 2, 1))),
        BaseFieldProfile(2, 2, 1, (D(1, 1, 1), D(2, 2, 1))),
        BaseFieldProfile(2, 1, 2, (D(1, 1, 1), D(2, 2, 1))),
        BaseFieldProfile(3, 1, 1, (D(1, 2, 1), D(2, 6, 1))),
        BaseFieldProfile(3, 2, 1, (D(1, 1, 2), D(2, 3, 2))),
        BaseFieldProfile(3, 1, 2, (D(1, 2, 1), D(2, 6, 1))),
        BaseFieldProfile(3, 2, 1, (D(1, 1, 1), D(2, 3, 1))),
        BaseFieldProfile(5, 1, 1, (D(1, 4, 1), D(2, 20, 1))),
        BaseFieldProfile(5, 1, 2, (D(1, 4, 1), D(2, 20, 1))),
    ]


def test_corrupted_delta_is_caught(monkeypatch):
    real = counting.delta_count

    def corrupted(p, m, s, i, bits=None):
        value = real(p, m, s, i, bits)
        return value + 1 if (p, m, s, i) == (2, 1, 1, 1) else value

    monkeypatch.setattr(counting, "delta_count", corrupted)
    results = {r.name: r for r in selfcheck.run_selfcheck(grid="small")}
    telescoping = results["delta-telescoping"]
    assert not telescoping.ok
    assert "delta" in telescoping.failures[0]
    assert "p=2" in telescoping.failures[0]


def test_corrupted_pi_is_caught(monkeypatch):
    real = counting.pi_count

    def corrupted(p, m, s, xi, bits=None):
        value = real(p, m, s, xi, bits)
        return value + 1 if (p, s) == (3, 1) else value

    monkeypatch.setattr(counting, "pi_count", corrupted)
    results = {r.name: r for r in selfcheck.run_selfcheck(grid="small")}
    assert not results["pi-oracle"].ok
    assert "pi_count" in results["pi-oracle"].failures[0]


def test_corrupted_sigma_breaks_golden_values(monkeypatch):
    real = counting.sigma_krasner
    monkeypatch.setattr(counting, "sigma_krasner", lambda p, N, s, bits=None: real(p, N, s, bits) + p)
    results = {r.name: r for r in selfcheck.run_selfcheck(grid="small")}
    assert not results["golden"].ok


def test_abelian_factor_lists_counts():
    lists = selfcheck.abelian_factor_lists(16)
    # non-cyclic abelian groups of order <= 16:
    # 4: C2^2; 8: C4xC2, C2^3; 9: C3^2; 12: C6xC2; 16: C8xC2, C4^2, C4xC2^2, C2^4
    assert len(lists) == 9
    assert (2, 2) in lists
    assert (4, 2, 2) in lists
    # one entry per isomorphism class, elementary divisor form
    assert (4, 4) in lists and (2, 2, 2, 2) in lists


@pytest.mark.parametrize("grid, counts", [
    ("small", [99, 60, 144, 198, 180, 108, 36, 16, 76, 10]),
    ("full", [373, 216, 900, 198, 315, 216, 144, 24, 214, 10]),
])
def test_grid_check_counts(grid, counts):
    # with no limit to set, only an edit of a grid can move a count
    results = selfcheck.run_selfcheck(grid=grid)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
    assert [r.checks for r in results] == counts


@pytest.mark.parametrize("small, depths", [(True, {2: 3, 3: 1}), (False, {2: 3, 3: 2})])
def test_the_degree_grid_shares_one_profile_per_prime_as_deep_as_its_largest_n(small, depths):
    grid = list(selfcheck._degree_grid(small))
    top = 8 if small else 12
    assert [(K.p, n) for K, n in grid] == [(p, n) for p in (2, 3) for n in range(1, top + 1)]
    profiles = {K.p: K for K, _ in grid}
    assert all(K is profiles[K.p] for K, _ in grid)
    assert {p: K.depth for p, K in profiles.items()} == depths


@pytest.mark.parametrize("grid", ["tiny", "Full"])
def test_run_selfcheck_refuses_an_unknown_grid(grid):
    with pytest.raises(DomainError) as refused:
        selfcheck.run_selfcheck(grid=grid)
    assert str(refused.value) == f"unknown grid {grid!r}, expected 'small' or 'full'"


def test_an_internal_error_fails_one_check_and_the_suite_goes_on(monkeypatch, capsys):
    real = counting.psi_count

    def planted(u, v):
        if (u, v) == (2, 2):
            raise ConsistencyError("planted")
        return real(u, v)

    monkeypatch.setattr(counting, "psi_count", planted)
    psi = selfcheck.psi_oracle_suite(small=True)
    assert (psi.checks, psi.fail_count) == (144, 1)
    assert psi.failures == ["internal exactness violation: planted"]

    assert main(["selfcheck", "--grid", "small"]) == 1
    out = capsys.readouterr().out
    assert "FAIL (1 of 144)" in out
    assert "first counterexample: internal exactness violation: planted" in out


def test_a_remainder_in_the_dual_count_fails_its_checks_and_not_the_run(monkeypatch, capsys):
    # one extra element of order 3 in every histogram: 3 elements of order 3
    # do not split into cyclic subgroups of 2 generators each
    real = oracles.AbelianGroup.order_histogram
    monkeypatch.setattr(oracles.AbelianGroup, "order_histogram", lambda G: real(G) + Counter({3: 1}))
    dual = selfcheck.dual_oracle_suite(small=True)
    assert dual.checks == 180
    assert dual.failures[0].startswith(
        "internal exactness violation: cyclic subgroups of order 3 in (3, 1, 1, 1)"
    )

    assert main(["selfcheck", "--grid", "small"]) == 1
    assert "dual-oracle" in capsys.readouterr().out


def test_a_fault_planted_between_two_runs_fails_the_second(monkeypatch):
    # mult_order is reached only inside memoized level sums, so fields kept
    # from the first run would answer the second from their memos and pass
    assert all(r.ok for r in selfcheck.run_selfcheck(grid="small"))
    monkeypatch.setattr(arith, "mult_order", lambda p, modulus: 1)
    failing = [r.name for r in selfcheck.run_selfcheck(grid="small") if not r.ok]
    assert failing == ["remark-equivalence", "theorem-consistency"]


@pytest.mark.parametrize("grid, fields", [("small", 15), ("full", 16)])
def test_one_run_builds_each_base_field_once(monkeypatch, grid, fields):
    built = Counter()
    real_init = BaseFieldProfile.__init__

    def counting_init(self, *args):
        real_init(self, *args)
        built[self._key()] += 1

    monkeypatch.setattr(BaseFieldProfile, "__init__", counting_init)
    assert all(r.ok for r in selfcheck.run_selfcheck(grid=grid))
    assert len(built) == fields and set(built.values()) == {1}
    # a second run starts from fresh fields
    selfcheck.run_selfcheck(grid=grid)
    assert set(built.values()) == {2}


def _bump(module, name, when, by=1):
    real = getattr(module, name)

    def planted(*args):
        value = real(*args)
        return value + by if when(*args) else value

    return module, name, planted


def _false_lemma_report():
    real = oracles.lemma_check

    def planted(G, n):
        report = real(G, n)
        if (G.name, n) == ("dihedral(4)", 2):
            return report._replace(lhs=report.lhs + 1, equal=False)
        return report

    return oracles, "lemma_check", planted


# one planted fault per suite, with the suite's fail and check counts and
# its first counterexample, recorded before messages were built lazily
PLANTED_FAULTS = {
    "lemma": (_false_lemma_report(), (1, 99),
              "chain-count identity fails for dihedral(4), n=2: classes=4, weighted chains/n=3"),
    "pi-oracle": (_bump(counting, "pi_count", lambda p, m, s, xi, bits: (p, s) == (3, 1)), (12, 60),
                  "pi_count(3,1,1,0) = 3 but enumeration with r=1 finds 2"),
    "psi-oracle": (_bump(counting, "psi_count", lambda u, v: (u, v) == (4, 6)), (1, 144),
                   "psi_count(4,6) = 5 but enumeration of C_4 x C_6 finds 4"),
    "delta-telescoping": (
        _bump(counting, "delta_count", lambda p, m, s, i, bits: (p, m, s, i) == (3, 2, 2, 1)), (5, 198),
        "delta rows (p=3,m=2,s=2) sum to 217 through i=1, pi gives 216"),
    "dual-oracle": (
        _bump(counting, "cyclic_count_ef", lambda K, e, f, bits: (K.p, K.f0, e, f) == (3, 2, 2, 2)),
        (1, 180),
        "cyclic_count_ef(p=3,n0=2,f0=2,xi=0; e=2,f=2) = 2 but subgroup enumeration finds 1"),
    "cyclic-decomposition": (
        _bump(counting, "cyclic_count_total", lambda K, d, bits: (K.p, K.e0, d) == (2, 2, 4)), (1, 108),
        "sum of cyclic_count_ef over ef=4 is 56, cyclic_count_total gives 57 (p=2,n0=2,f0=1,xi=1)"),
    "remark-equivalence": (
        _bump(theorems, "iso_count_ef", lambda K, e, f, bits: (K.p, e, f) == (5, 3, 2)), (1, 36),
        "tame_iso_count(Q_5,e=3,f=2) = 2 but iso_count_ef gives 3"),
    "theorem-consistency": (
        _bump(theorems, "iso_count_total", lambda K, n, bits: (K.p, n) == (3, 6)), (1, 16),
        "iso_count_total(Q_3,n=6) = 76 but the (e,f) cells sum to 75"),
    "sandwich": (
        _bump(counting, "krasner_count", lambda K, e, f, bits: (K.p, e, f) == (2, 4, 1), by=10**6),
        (1, 76), "sandwich fails over Q_2 at (e=4,f=1): classes=48, fields=1000092"),
    "golden": (_bump(counting, "sigma_krasner", lambda p, N, s, bits: (p, N) == (3, 3)), (3, 10),
               "N(Q_3,e=3,f=1) = 24, expected 21"),
}


@pytest.mark.parametrize("suite", PLANTED_FAULTS)
def test_each_suite_reports_a_planted_fault_in_its_recorded_words(monkeypatch, suite):
    (module, name, planted), counts, first = PLANTED_FAULTS[suite]
    monkeypatch.setattr(module, name, planted)
    result = {r.name: r for r in selfcheck.run_selfcheck(grid="small")}[suite]
    assert (result.fail_count, result.checks) == counts
    assert result.failures[0] == first


def test_a_passing_check_never_builds_its_message(monkeypatch):
    built = []
    real = selfcheck.SuiteResult.record

    def watched(self, passed, message):
        real(self, passed, lambda: built.append(passed) or message())

    monkeypatch.setattr(selfcheck.SuiteResult, "record", watched)
    assert all(r.ok for r in selfcheck.run_selfcheck(grid="small"))
    assert built == []


def test_a_failing_check_builds_its_message_once_and_only_the_first_five_are_kept():
    result, built = selfcheck.SuiteResult("planted"), []
    for k in range(7):
        result.record(False, lambda: built.append(k) or f"failure {k}")
    assert (result.checks, result.fail_count) == (7, 7)
    assert built == [0, 1, 2, 3, 4]
    assert result.failures == [f"failure {k}" for k in range(5)]


def test_each_psi_check_reads_the_shared_histogram(monkeypatch):
    # (u, v) with u > v reads the histogram enumerated at (v, u): a psi_count
    # wrong only there must fail each of those checks
    real = counting.psi_count
    monkeypatch.setattr(counting, "psi_count", lambda u, v: real(u, v) + (u > v))
    psi = selfcheck.psi_oracle_suite()
    assert (psi.checks, psi.fail_count) == (900, 30 * 29 // 2)
    assert psi.failures[0] == "psi_count(2,1) = 2 but enumeration of C_2 x C_1 finds 1"


def _shared_dual_groups(fields, d_max=12):
    """dual factors -> every (K, d) with that dual group, for the groups
    that two or more (K, d) share, in suite order."""
    readers = {}
    for K in fields:
        for d in range(1, d_max + 1):
            readers.setdefault(oracles.dual_group(K, d).factors, []).append((K, d))
    return {factors: pairs for factors, pairs in readers.items() if len(pairs) > 1}


def test_a_field_that_reads_a_shared_dual_count_is_still_checked(monkeypatch):
    fields = selfcheck._cyclic_profiles()
    shared = _shared_dual_groups(fields)
    assert len(shared) == 26
    # the last reader of a group counted for another field first
    (first, _), (K, d) = next((pairs[0], pairs[-1]) for factors, pairs in shared.items()
                              if factors[0] > 1)
    assert first is not K
    real = counting.cyclic_count_ef
    monkeypatch.setattr(counting, "cyclic_count_ef", lambda L, e, f, bits: (
        real(L, e, f, bits) + (L is K and (e, f) == (d, 1))
    ))
    dual = selfcheck.dual_oracle_suite(fields=fields)
    assert (dual.checks, dual.fail_count) == (315, 1)
    assert dual.failures[0].startswith(
        f"cyclic_count_ef(p={K.p},n0={K.n0},f0={K.f0},xi={K.xi}; e={d},f=1) = "
    )


def test_a_shared_dual_count_that_raises_fails_every_check_that_reads_it(monkeypatch):
    fields = selfcheck._cyclic_profiles()
    factors, pairs = max(_shared_dual_groups(fields).items(), key=lambda item: len(item[1]))
    real = oracles.dual_cyclic_subgroup_count

    def planted(Ghat):
        if Ghat.factors == factors:
            raise ConsistencyError("planted")
        return real(Ghat)

    monkeypatch.setattr(oracles, "dual_cyclic_subgroup_count", planted)
    dual = selfcheck.dual_oracle_suite(fields=fields)
    assert len(pairs) >= 3
    assert dual.fail_count == sum(len(arith.divisor_pairs(d)) for _, d in pairs)
    assert set(dual.failures) == {"internal exactness violation: planted"}


def test_one_full_run_enumerates_each_group_once_and_factors_each_table_once(monkeypatch):
    # before each suite enumerated each of its groups afresh: 1,188 histograms
    # (72 pi, 900 psi, 2 x 108 dual), and lemma_check made 1,620 factorisations
    histograms = []
    real_histogram = oracles.AbelianGroup.order_histogram
    monkeypatch.setattr(oracles.AbelianGroup, "order_histogram",
                        lambda G: histograms.append(G.factors) or real_histogram(G))
    for suite, count in ((selfcheck.pi_oracle_suite, 72), (selfcheck.psi_oracle_suite, 465),
                         (selfcheck.dual_oracle_suite, 2 * 61)):
        histograms.clear()
        suite()
        assert len(histograms) == count, suite.__name__

    factored, checking = [], []
    real_factors, real_check = arith.prime_factors, oracles.lemma_check

    def check(G, n):
        checking.append(G)
        try:
            return real_check(G, n)
        finally:
            checking.pop()

    def factors(n):
        if checking:  # inside lemma_check: note its table
            factored.append(checking[-1])
        return real_factors(n)

    monkeypatch.setattr(arith, "prime_factors", factors)
    monkeypatch.setattr(oracles, "lemma_check", check)
    histograms.clear()
    assert all(r.ok for r in selfcheck.run_selfcheck())
    assert len(histograms) == 72 + 465 + 2 * 61 == 659
    # one factorisation per table, made where its lattice is built
    assert len(factored) == len(set(map(id, factored))) == 72
