import pytest

from padicount import arith, oracles
from padicount.counting import cyclic_count_ef, cyclic_count_total, pi_count, psi_count
from padicount.errors import DomainError, MagnitudeError
from padicount.oracles import (
    AbelianGroup,
    GroupTable,
    builtin_group,
    dual_cyclic_subgroup_count,
    dual_group,
    element_order_count,
    lemma_check,
    subgroups,
)
from padicount.profiles import BaseFieldProfile, CyclotomicDatum, qp_profile


def test_abelian_group_basics():
    G = AbelianGroup([4, 2])
    assert G.order == 8
    assert G.identity() == (0, 0)
    assert G.element_order((1, 0)) == 4
    assert G.element_order((2, 1)) == 2
    assert sum(G.order_histogram().values()) == 8


def test_abelian_group_cap():
    with pytest.raises(MagnitudeError):
        AbelianGroup([1000, 1000])
    AbelianGroup([1000, 1000], cap=10**6)


def test_element_order_count_examples():
    assert element_order_count(AbelianGroup([2, 2]), 2) == 3
    for n in range(1, 13):
        assert element_order_count(AbelianGroup([n]), n) == arith.euler_phi(n)
    assert element_order_count(AbelianGroup([4, 2]), 4) == 4


def test_element_order_count_matches_psi():
    for u in range(1, 16):
        for v in range(1, 16):
            assert element_order_count(AbelianGroup([u, v]), u) == psi_count(u, v)


def test_pi_count_r_independence():
    for p in (2, 3):
        for m in (1, 2):
            for xi in (0, 1, 2):
                for s in (0, 1, 2):
                    for r in range(s, 4):
                        if r == 0:
                            continue
                        G = AbelianGroup((p**r,) * m + (p ** min(xi, r),))
                        assert element_order_count(G, p**s) == pi_count(p, m, s, xi)


def test_dual_group_shape_for_q2():
    Ghat = dual_group(qp_profile(2, 2), 2)
    # C_2 x C_z x C_2 x C_2 with the prime-to-2 slot degenerate
    assert Ghat.factors == (2, 1, 2, 2)


def test_dual_cyclic_subgroup_count_q2():
    Ghat = dual_group(qp_profile(2, 2), 2)
    by_meet = dual_cyclic_subgroup_count(Ghat, 2)
    assert by_meet[2] == 1  # only B itself
    assert by_meet[1] == 6  # the ramified quadratics
    assert sorted(by_meet) == [1, 2]


def test_dual_cyclic_subgroup_count_trivial():
    # Q_2, and Q_3(zeta_3): (p, n0, f0, xi) = (3, 2, 1, 1)
    q3_zeta3 = BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 3, 1)))
    for K in (qp_profile(2, 2), q3_zeta3):
        Ghat = dual_group(K, 1)
        assert dual_cyclic_subgroup_count(Ghat, 1)[1] == 1


def test_dual_cyclic_subgroup_count_checks_distinguished_factor():
    Ghat = AbelianGroup([4, 2])
    with pytest.raises(DomainError):
        dual_cyclic_subgroup_count(Ghat, 2)


def test_dual_oracle_matches_formulas_small():
    # (p, n0, f0) = (p, 1, 1) with xi = 1 for p = 2 and xi in {0, 1} for p = 3
    xi_one = BaseFieldProfile(3, 1, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 6, 1)))
    for K in (qp_profile(2, 2), qp_profile(3, 1), xi_one):
        for d in range(1, 9):
            Ghat = dual_group(K, d)
            by_meet = dual_cyclic_subgroup_count(Ghat, d)
            per_f = {f: by_meet[f] for _, f in arith.divisor_pairs(d)}
            for e, f in arith.divisor_pairs(d):
                assert cyclic_count_ef(K, e, f) == per_f[f], (K.p, K.xi, e, f)
            assert sum(per_f.values()) == cyclic_count_total(K, d)


def test_group_table_rejects_junk():
    with pytest.raises(DomainError):
        GroupTable([[0, 1], [1, 1]])  # column not a permutation
    with pytest.raises(DomainError):
        GroupTable([[1, 0], [1, 0]])  # no identity
    # order-5 latin square with identity that is not associative
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(DomainError):
        GroupTable(rows)


def test_builtin_cyclic_orders():
    G = builtin_group("cyclic", 4)
    assert sorted(G.element_order(x) for x in range(4)) == [1, 2, 4, 4]


def test_builtin_dihedral():
    G = builtin_group("dihedral", 4)
    assert G.order == 8
    assert not G.is_abelian()
    assert len(subgroups(G)) == 10


def test_builtin_symmetric_and_alternating():
    S3 = builtin_group("symmetric", 3)
    assert S3.order == 6
    assert not S3.is_abelian()
    assert sorted(S3.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    A4 = builtin_group("alternating", 4)
    assert A4.order == 12
    assert len(subgroups(A4)) == 10


def test_builtin_quaternion():
    Q8 = builtin_group("quaternion8")
    assert Q8.order == 8
    assert sorted(Q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(subgroups(Q8)) == 6


def test_builtin_rejects_unknown():
    with pytest.raises(DomainError):
        builtin_group("sporadic", 1)
    with pytest.raises(DomainError):
        builtin_group("symmetric", 5)
    with pytest.raises(DomainError):
        builtin_group("alternating", 5)


def test_subgroups_examples():
    assert len(subgroups(builtin_group("cyclic", 6))) == 4
    assert len(subgroups(builtin_group("symmetric", 3))) == 6
    assert len(subgroups(builtin_group("cyclic", 1))) == 1


def test_subgroups_cap():
    G = builtin_group("cyclic", 30)
    with pytest.raises(MagnitudeError):
        subgroups(G, cap=24)


def test_subgroups_closed_under_join_and_conjugation():
    for name, params in (("symmetric", (3,)), ("dihedral", (4,)), ("alternating", (4,)), ("quaternion8", ())):
        G = builtin_group(name, *params)
        subs = {frozenset(S) for S in subgroups(G)}
        for A in subs:
            for g in range(G.order):
                assert frozenset(G.conjugate(g, x) for x in A) in subs
            for B in subs:
                joined = A | B
                # close the union by multiplication
                frontier = list(joined)
                els = set(joined)
                while frontier:
                    x = frontier.pop()
                    for y in tuple(els):
                        for z in (G.mul(x, y), G.mul(y, x)):
                            if z not in els:
                                els.add(z)
                                frontier.append(z)
                assert frozenset(els) in subs


def test_lemma_check_s3():
    S3 = builtin_group("symmetric", 3)
    report = lemma_check(S3, 2)
    assert (report.lhs, report.rhs, report.equal) == (1, 1, True)
    assert report.chain_counts == {1: 1, 2: 1}

    report = lemma_check(S3, 6)
    assert report.equal and report.lhs == 1
    assert report.chain_counts == {1: 1, 2: 3, 3: 1, 6: 0}


def test_lemma_check_index_one():
    for name, params in (("cyclic", (8,)), ("dihedral", (5,)), ("symmetric", (4,))):
        report = lemma_check(builtin_group(name, *params), 1)
        assert report.lhs == report.rhs == 1


def test_lemma_check_rejects_bad_index():
    with pytest.raises(DomainError):
        lemma_check(builtin_group("cyclic", 6), 4)


def test_lemma_check_nonabelian_zoo():
    for name, params in (("dihedral", (6,)), ("quaternion8", ()), ("alternating", (4,))):
        G = builtin_group(name, *params)
        for n in arith.divisors(G.order):
            assert lemma_check(G, n).equal, (G.name, n)
