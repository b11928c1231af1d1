"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact (tolerance zero).  The verification grids are
pinned in this file; the suite functions they call live in
padicount.selfcheck so the CLI selfcheck exercises the same code.
"""

import time

import pytest

from padicount import arith, counting, selfcheck, theorems
from padicount.counting import cyclic_count_ef, cyclic_count_total, krasner_count
from padicount.errors import ConsistencyError
from padicount.profiles import qp_profile


class _Timer:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.2f}s)")
        return False


def _assert_suite(result):
    assert result.ok, f"{result.name}: {result.fail_count} failures; first: {result.failures[:1]}"
    assert result.checks > 0


def test_criterion_1_exact_golden_values():
    with _Timer("criterion 1, exact golden values"):
        assert krasner_count(qp_profile(2, 0), 2, 1) == 6
        assert krasner_count(qp_profile(3, 0), 3, 1) == 21
        assert theorems.iso_count_ef(qp_profile(2, 1), 2, 1) == 6
        assert theorems.iso_count_ef(qp_profile(3, 1), 3, 1) == 9
        assert theorems.iso_count_total(qp_profile(2, 1), 2) == 7
        assert theorems.iso_count_total(qp_profile(3, 1), 3) == 10
        assert theorems.tame_iso_count(qp_profile(5, 0), 2, 1) == 2
        assert cyclic_count_ef(qp_profile(2, 2), 2, 1) == 6
        assert cyclic_count_total(qp_profile(2, 2), 2) == 7
        assert cyclic_count_total(qp_profile(3, 1), 3) == 4


def test_criterion_2_lemma_brute_force_suite():
    # every builtin group, every divisor of its order: cyclic <= 24,
    # abelian products <= 48, dihedral <= D_12, Q8, S3, S4, A4
    with _Timer("criterion 2, chain-count identity on the group zoo"):
        result = selfcheck.lemma_suite(max_table_order=48, small=False)
        _assert_suite(result)
        zoo = selfcheck.lemma_group_zoo(48, small=False)
        names = {g.name for g in zoo}
        assert {"cyclic(24)", "dihedral(12)", "quaternion8", "symmetric(3)",
                "symmetric(4)", "alternating(4)"} <= names
        assert any(name.startswith("abelian(2,2,2,2,2") for name in names)
        assert result.checks == sum(len(arith.divisors(g.order)) for g in zoo)


def test_criterion_3_element_count_oracles():
    # pi over p in {2,3}, m <= 3, s <= r <= 3, xi <= 3 (r-independence included);
    # psi over u, v <= 30
    with _Timer("criterion 3, element-count oracles"):
        pi = selfcheck.pi_oracle_suite(max_abelian_order=1_000_000, small=False)
        _assert_suite(pi)
        assert pi.checks == 2 * 3 * 4 * (2 + 3 + 4)  # p, xi, and sum of (r+1) over r
        psi = selfcheck.psi_oracle_suite(max_abelian_order=1_000_000, small=False)
        _assert_suite(psi)
        assert psi.checks == 30 * 30
        delta = selfcheck.delta_telescoping_suite()
        _assert_suite(delta)


def test_criterion_4_dual_group_oracle():
    # cyclic_count_ef vs dual-group subgroup enumeration for d <= 12,
    # profiles with n0 <= 2, f0 <= 2, xi <= 1, p in {2,3};
    # decomposition identity up to d = 24
    with _Timer("criterion 4, dual-group oracle and decomposition"):
        dual = selfcheck.dual_oracle_suite(max_abelian_order=1_000_000, small=False)
        _assert_suite(dual)
        assert dual.checks == sum(
            len(arith.divisors(d)) for d in range(1, 13)
        ) * len(selfcheck._cyclic_profiles())
        decomp = selfcheck.cyclic_decomposition_suite(small=False)
        _assert_suite(decomp)
        assert decomp.checks == 24 * len(selfcheck._cyclic_profiles())


def test_criterion_5_theorem_consistency():
    # totals vs (e,f) cells for p in {2,3}, n <= 12; tame Remark vs the
    # general evaluator for p in {3,5,7}, e <= 10 (p not dividing e), f <= 6;
    # sandwich bound across both grids
    with _Timer("criterion 5, theorem consistency, remark and sandwich"):
        consistency = selfcheck.theorem_consistency_suite(small=False)
        _assert_suite(consistency)
        assert consistency.checks == 2 * 12
        remark = selfcheck.remark_equivalence_suite(small=False)
        _assert_suite(remark)
        assert remark.checks == sum(
            1 for p in (3, 5, 7) for e in range(1, 11) if e % p for _ in range(6)
        )
        sandwich = selfcheck.sandwich_suite(small=False)
        _assert_suite(sandwich)


def test_criterion_6_exactness_guards(monkeypatch):
    # every internal division asserts integrality, and selfcheck fails
    # loudly (orderly failing report, never a rounded answer) on violation
    with _Timer("criterion 6, exactness guards"):
        real_phi = arith.euler_phi
        monkeypatch.setattr(arith, "euler_phi", lambda n: 2 if n == 2 else real_phi(n))
        with pytest.raises(ConsistencyError):
            theorems.iso_count_ef(qp_profile(5, 0), 1, 2)
        monkeypatch.setattr(arith, "euler_phi", real_phi)

        monkeypatch.setattr(counting, "pi_count", lambda p, m, s, xi, bits=None: 3)
        with pytest.raises(ConsistencyError):
            counting.cyclic_count_ef(qp_profile(3, 1), 3, 1)
        monkeypatch.undo()

        with pytest.raises(counting.DomainError):
            counting.sigma_krasner(2, 3, 1)  # integrality of eps(i)*N enforced

        real_delta = counting.delta_count

        def corrupted(p, m, s, i, bits=None):
            value = real_delta(p, m, s, i, bits)
            return value + 1 if (p, m, s, i) == (2, 1, 1, 1) else value

        monkeypatch.setattr(counting, "delta_count", corrupted)
        results = selfcheck.run_selfcheck(grid="small")
        assert any(not r.ok for r in results)
        failing = [r for r in results if not r.ok]
        assert any("delta" in r.failures[0] for r in failing)
