from collections import Counter

import pytest

from padicount import arith, counting, oracles, selfcheck, theorems
from padicount.cli import main
from padicount.errors import ConsistencyError, DomainError
from padicount.profiles import BaseFieldProfile


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


def test_table_order_cap_filters_zoo():
    zoo = selfcheck.lemma_group_zoo(6)
    assert all(g.order <= 6 for g in zoo)
    names = {g.name for g in zoo}
    assert "symmetric(3)" in names
    assert "cyclic(6)" in names


def test_dual_oracle_skips_groups_past_the_abelian_cap():
    capped = selfcheck.dual_oracle_suite(max_abelian_order=10, small=True)
    assert capped.ok
    assert 0 < capped.checks < selfcheck.dual_oracle_suite(max_abelian_order=10**6, small=True).checks


def test_psi_oracle_skips_groups_past_the_abelian_cap():
    results = {r.name: r for r in selfcheck.run_selfcheck(grid="small", max_abelian_order=10)}
    capped = results["psi-oracle"]
    assert capped.ok
    assert 0 < capped.checks < 144  # 144 = 12 x 12 groups C_u x C_v uncapped


@pytest.mark.parametrize(
    "cap, small, counts",
    [(10, False, (41, 27)), (10, True, (29, 27)), (100, False, (118, 296)), (100, True, (54, 134))],
)
def test_the_element_count_oracles_skip_what_abelian_group_refuses(cap, small, counts):
    # AbelianGroup alone applies the cap: each suite skips the groups it refuses
    pi = selfcheck.pi_oracle_suite(max_abelian_order=cap, small=small)
    psi = selfcheck.psi_oracle_suite(max_abelian_order=cap, small=small)
    assert pi.ok and psi.ok
    assert (pi.checks, psi.checks) == counts


def test_full_grid_check_counts():
    results = selfcheck.run_selfcheck(grid="full")
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
    assert [r.checks for r in results] == [373, 216, 900, 198, 315, 216, 144, 24, 214, 10]


@pytest.mark.parametrize("small, depths", [(True, {2: 3, 3: 1}), (False, {2: 3, 3: 2})])
def test_the_degree_grid_shares_one_profile_per_prime_as_deep_as_its_largest_n(small, depths):
    grid = list(selfcheck._degree_grid(small))
    top = 8 if small else 12
    assert [(K.p, n) for K, n in grid] == [(p, n) for p in (2, 3) for n in range(1, top + 1)]
    profiles = {K.p: K for K, _ in grid}
    assert all(K is profiles[K.p] for K, _ in grid)
    assert {p: K.depth for p, K in profiles.items()} == depths


def test_table_order_cap_is_applied_before_building(monkeypatch, capsys):
    built = []
    real_init = oracles.GroupTable.__init__

    def counting_init(self, table, name=""):
        built.append(len(table))
        real_init(self, table, name)

    monkeypatch.setattr(oracles.GroupTable, "__init__", counting_init)
    assert main(["selfcheck", "--grid", "small", "--max-table-order", "6"]) == 0
    capsys.readouterr()
    # cyclic(1..6), abelian(2,2), dihedral(3), symmetric(3)
    assert sorted(built) == [1, 2, 3, 4, 4, 5, 6, 6, 6]


@pytest.mark.parametrize("caps", [{"max_abelian_order": 0}, {"max_table_order": -5}])
def test_run_selfcheck_refuses_a_cap_below_one(caps):
    # a cap below 1 would empty lemma and the three oracle suites, which would read as passing
    with pytest.raises(DomainError, match=">= 1"):
        selfcheck.run_selfcheck(grid="small", **caps)


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
    psi = selfcheck.psi_oracle_suite(max_abelian_order=10**6, small=True)
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
    dual = selfcheck.dual_oracle_suite(max_abelian_order=10**6, small=True)
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

    def planted(G, n, cap):
        report = real(G, n, cap)
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
