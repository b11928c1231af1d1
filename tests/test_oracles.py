import hashlib
import math
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from padicount import arith, oracles, selfcheck
from padicount.counting import cyclic_count_ef, cyclic_count_total, pi_count, psi_count
from padicount.errors import DomainError, MagnitudeError
from padicount.oracles import (
    AbelianGroup,
    GroupTable,
    abelian,
    alternating,
    cyclic,
    dihedral,
    dual_cyclic_subgroup_count,
    dual_group,
    lemma_check,
    quaternion8,
    subgroups,
    symmetric,
)
from padicount.profiles import BaseFieldProfile, CyclotomicDatum, qp_profile


def _coordinate_order(x, factors):
    """The order of the coordinate tuple x in the product of C_f over factors."""
    return math.lcm(*(f // math.gcd(c, f) for c, f in zip(x, factors)))


def test_abelian_group_basics():
    G = AbelianGroup([4, 2])
    assert G.order == 8
    assert next(product(range(4), range(2))) == (0, 0)
    assert _coordinate_order((1, 0), G.factors) == 4
    assert _coordinate_order((2, 1), G.factors) == 2
    assert sum(G.order_histogram().values()) == 8


@pytest.mark.parametrize("factors", [[2.5], ["3"], [True, 2], [2, False], [4, 2.0]])
def test_abelian_group_refuses_factors_that_are_not_integers(factors):
    with pytest.raises(DomainError, match="integers"):
        AbelianGroup(factors)


@pytest.mark.parametrize("rows", [
    [[0.0, 1], [1, 0]],
    [[0, 1.0], [1.0, 0]],
    [[False, True], [True, False]],
    [["0", "1"], ["1", "0"]],
])
def test_group_table_refuses_entries_that_are_not_integers(rows):
    with pytest.raises(DomainError, match="element indices"):
        GroupTable(rows)


def test_abelian_group_cap():
    with pytest.raises(MagnitudeError):
        AbelianGroup([1000, 1000])
    AbelianGroup([1000, 1000], cap=10**6)


def test_element_order_count_examples():
    assert AbelianGroup([2, 2]).order_histogram().get(2, 0) == 3
    for n in range(1, 13):
        assert AbelianGroup([n]).order_histogram().get(n, 0) == arith.euler_phi(n)
    assert AbelianGroup([4, 2]).order_histogram().get(4, 0) == 4


def test_element_order_count_matches_psi():
    for u in range(1, 16):
        for v in range(1, 16):
            assert AbelianGroup([u, v]).order_histogram().get(u, 0) == psi_count(u, v)


def test_pi_count_r_independence():
    for p in (2, 3):
        for m in (1, 2):
            for xi in (0, 1, 2):
                for s in (0, 1, 2):
                    for r in range(s, 4):
                        if r == 0:
                            continue
                        G = AbelianGroup((p**r,) * m + (p ** min(xi, r),))
                        assert G.order_histogram().get(p**s, 0) == pi_count(p, m, s, xi)


def test_dual_group_shape_for_q2():
    Ghat = dual_group(qp_profile(2, 2), 2)
    # C_2 x C_z x C_2 x C_2 with the prime-to-2 slot degenerate
    assert Ghat.factors == (2, 1, 2, 2)


def test_dual_cyclic_subgroup_count_q2():
    Ghat = dual_group(qp_profile(2, 2), 2)
    by_meet = dual_cyclic_subgroup_count(Ghat)
    assert by_meet[2] == 1  # only B itself
    assert by_meet[1] == 6  # the ramified quadratics
    assert sorted(by_meet) == [1, 2]


def test_dual_cyclic_subgroup_count_trivial():
    # Q_2, and Q_3(zeta_3): (p, n0, f0, xi) = (3, 2, 1, 1)
    q3_zeta3 = BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 3, 1)))
    for K in (qp_profile(2, 2), q3_zeta3):
        Ghat = dual_group(K, 1)
        assert dual_cyclic_subgroup_count(Ghat)[1] == 1


def test_dual_oracle_matches_formulas_small():
    # Q_2 and Q_3, with xi = 1 and 0, and Q_3(zeta_3): (p, n0, f0, xi) = (3, 2, 1, 1)
    q3_zeta3 = BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 3, 1)))
    for K in (qp_profile(2, 2), qp_profile(3, 1), q3_zeta3):
        for d in range(1, 9):
            Ghat = dual_group(K, d)
            by_meet = dual_cyclic_subgroup_count(Ghat)
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


@pytest.mark.parametrize("function, args, message", [
    (dual_group, (qp_profile(3, 1), 0), "d must be >= 1"),
    # d is the first factor, and a group with none has no distinguished factor
    (dual_cyclic_subgroup_count, (AbelianGroup(()),),
     "the dual group has no factors, so no distinguished first factor"),
    (GroupTable, ([[0, 1], [1]],), "group table must be square"),
    # every row is a permutation, but column 1 reads 1, 0, 0
    (GroupTable, ([[0, 1, 2], [1, 0, 2], [2, 0, 1]],), "column 1 is not a permutation"),
    # an entry out of range is refused before the identity is looked for
    (GroupTable, ([[0, 2], [1, 0]],), "table entries must be element indices"),
    (GroupTable, ([[0, -1], [1, 0]],), "table entries must be element indices"),
    (GroupTable, ([[1, 2], [0, 0]],), "table entries must be element indices"),
    # in range, but no row and column both read 0, 1: no identity, before any permutation test
    (GroupTable, ([[1, 1], [0, 0]],), "table has no identity element"),
    (GroupTable, ([[0, 1, 2], [1, 2, 2], [2, 0, 1]],), "row 1 is not a permutation"),
])
def test_oracles_refuse_malformed_arguments(function, args, message):
    with pytest.raises(DomainError) as refused:
        function(*args)
    assert str(refused.value) == message


def test_builtin_cyclic_orders():
    G = cyclic(4)
    assert sorted(_power_loop_order(G, x) for x in range(4)) == [1, 2, 4, 4]


def test_builtin_dihedral():
    G = dihedral(4)
    assert G.order == 8
    assert repr(G) == "GroupTable(dihedral(4), order=8)"  # as README shows it
    assert not G.is_abelian()
    assert len(subgroups(G)) == 10


def test_builtin_symmetric_and_alternating():
    S3 = symmetric(3)
    assert S3.order == 6
    assert not S3.is_abelian()
    assert sorted(_power_loop_order(S3, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    A4 = alternating(4)
    assert A4.order == 12
    assert len(subgroups(A4)) == 10


def test_builtin_quaternion():
    Q8 = quaternion8()
    assert Q8.order == 8
    assert sorted(_power_loop_order(Q8, x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(subgroups(Q8)) == 6


def test_constructors_refuse_an_empty_table():
    # a degree or order below 1 is refused by name, before any table is built
    for build, arg in [(cyclic, 0), (dihedral, 0), (cyclic, -2), (dihedral, -1),
                       (abelian, 0), (symmetric, -3), (alternating, -1), (symmetric, 0)]:
        with pytest.raises(DomainError, match=rf"must be >= 1, got \({arg},\)"):
            build(arg)
    with pytest.raises(DomainError, match=r"must be >= 1, got \(2, 0\)"):
        AbelianGroup((2, 0))
    with pytest.raises(DomainError, match="non-empty"):
        GroupTable([])
    assert (dihedral(1).order, dihedral(2).order, symmetric(1).order) == (2, 4, 1)


@pytest.mark.parametrize("build, args", [
    (abelian, (True, 2)),
    (abelian, (2, 2.0)),
    (alternating, (True,)),
    (cyclic, (2.5,)),
    (cyclic, (False,)),
    (dihedral, ("3",)),
    (symmetric, (2.0,)),
])
def test_constructors_refuse_arguments_that_are_not_integers(build, args):
    with pytest.raises(DomainError, match="must be integers"):
        build(*args)


def test_subgroups_examples():
    assert len(subgroups(cyclic(6))) == 4
    assert len(subgroups(symmetric(3))) == 6
    assert len(subgroups(cyclic(1))) == 1


def _lattice_joins(monkeypatch, *groups):
    """The number of _join calls subgroups makes over groups, and the
    number of subgroups it finds."""
    calls = []
    real = oracles._join

    def counting_join(table, mask, H, g):
        calls.append(g)
        return real(table, mask, H, g)

    monkeypatch.setattr(oracles, "_join", counting_join)
    size = sum(len(subgroups(G)) for G in groups)
    return len(calls), size


def test_the_lattice_walk_joins_each_covering_pair_once(monkeypatch):
    # in (C2)^4 every join <H, g> has index 2 over H, and the walk skips
    # every g in a known subgroup of index 2 over H: one found before H's
    # turn, ORed into H's covered bits first, or one H's own joins found.
    # So no join rebuilds a known subgroup: one join per non-trivial one
    joins, size = _lattice_joins(monkeypatch, oracles.abelian(2, 2, 2, 2))
    assert size == 67
    assert joins == 67 - 1 == 66


def test_the_lattice_walk_joins_g_only_once_g_to_the_q_lies_in_h(monkeypatch):
    # C4 x C4, with V its 2-torsion: from the trivial subgroup only the 3
    # elements of order 2 pass (the 6 cyclic subgroups of order 4 have
    # g^2 != e).  From the first subgroup of order 2 taken, V, which covers
    # the third element of order 2, and the 2 cyclic subgroups of order 4
    # above it; from the other two, V is known, so only their 2 cyclic
    # subgroups of order 4.  From V, one join per subgroup of order 8 (each
    # V + <g>, covering 2 of the cyclic ones); from a cyclic subgroup C of
    # order 4, none: the known V + C holds every g with g^2 in C.  From the
    # first subgroup of order 8 taken, the whole group, known to the others
    joins, size = _lattice_joins(monkeypatch, oracles.abelian(4, 4))
    assert size == 15
    assert joins == 3 + (3 + 2 + 2) + 3 + 6 * 0 + 1 == 14


def test_the_lattice_walk_rebuilds_few_known_subgroups_over_the_full_zoo(monkeypatch):
    # 1575 subgroups, 72 of them trivial and never joined.  A walk that
    # skipped only the generators its own prime-index joins covered made
    # 5596 joins here, so about 73% rebuilt a subgroup already found
    zoo = selfcheck.lemma_group_zoo(48)
    joins, size = _lattice_joins(monkeypatch, *zoo)
    assert size == 1575
    assert joins <= 2300


def test_subgroups_cap():
    G = cyclic(30)
    with pytest.raises(MagnitudeError):
        subgroups(G, cap=24)


def test_subgroups_closed_under_join_and_conjugation():
    for G in (symmetric(3), dihedral(4), alternating(4), quaternion8()):
        subs = {frozenset(S) for S in subgroups(G)}
        inverse = [row.index(G.identity) for row in G.table]
        for A in subs:
            for g in range(G.order):
                assert frozenset(G.table[G.table[g][x]][inverse[g]] for x in A) in subs
            for B in subs:
                joined = A | B
                # close the union by multiplication
                frontier = list(joined)
                els = set(joined)
                while frontier:
                    x = frontier.pop()
                    for y in tuple(els):
                        for z in (G.table[x][y], G.table[y][x]):
                            if z not in els:
                                els.add(z)
                                frontier.append(z)
                assert frozenset(els) in subs


def test_lemma_check_s3():
    S3 = symmetric(3)
    report = lemma_check(S3, 2)
    assert (report.lhs, report.rhs, report.equal) == (1, 1, True)
    assert report.chain_counts == {1: 1, 2: 1}

    report = lemma_check(S3, 6)
    assert report.equal and report.lhs == 1
    assert report.chain_counts == {1: 1, 2: 3, 3: 1, 6: 0}


def test_lemma_check_index_one():
    for G in (cyclic(8), dihedral(5), symmetric(4)):
        report = lemma_check(G, 1)
        assert report.lhs == report.rhs == 1


def test_lemma_check_rejects_bad_index():
    with pytest.raises(DomainError):
        lemma_check(cyclic(6), 4)


def test_lemma_check_nonabelian_zoo():
    for G in (dihedral(6), quaternion8(), alternating(4)):
        for n in arith.divisors(G.order):
            assert lemma_check(G, n).equal, (G.name, n)


def _reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and column are
    0, 1, ..., n-1, so that 0 is a two-sided identity."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    columns = [{rows[i][j] for i in range(n) if rows[i][j] is not None} for j in range(n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in rows]
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        for x in range(n):
            if x in rows[i] or x in columns[j]:
                continue
            rows[i][j] = x
            columns[j].add(x)
            yield from fill(cell + 1)
            rows[i][j] = None
            columns[j].discard(x)

    yield from fill(n)


def _associative(rows):
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


# sha256 over the refusal message of each refused square, one per line,
# recorded before construction compared whole rows at once
REFUSED_SQUARES_DIGEST = "1d5b6d8d9d8db82ed5c5a1f9009a0a01683b6614bfc1a51c7a5a55456580fa37"


def test_group_table_accepts_exactly_the_associative_latin_squares():
    squares, accepted = [], []
    refusals = hashlib.sha256()
    for n in range(1, 7):
        total = kept = 0
        for rows in _reduced_latin_squares(n):
            total += 1
            try:
                GroupTable(rows)
            except DomainError as refused:
                assert not _associative(rows), rows
                refusals.update(f"{refused}\n".encode())
            else:
                assert _associative(rows), rows
                kept += 1
        squares.append(total)
        accepted.append(kept)
    assert squares == [1, 1, 1, 4, 56, 9408]
    assert accepted == [1, 1, 1, 4, 6, 80]
    # the message names the first failing (a, b, c) in a, b, c order
    assert refusals.hexdigest() == REFUSED_SQUARES_DIGEST


def _closed_subsets(G):
    """Every subset holding the identity and closed under the table, found
    by trying all subsets: in a finite group these are the subgroups."""
    others = [x for x in range(G.order) if x != G.identity]
    out = []
    for k in range(len(others) + 1):
        for chosen in combinations(others, k):
            S = {G.identity, *chosen}
            if all(G.table[a][b] in S for a in S for b in S):
                out.append(tuple(sorted(S)))
    return sorted(out, key=lambda t: (len(t), t))


def test_subgroups_equal_the_closed_subsets_on_the_small_zoo():
    small = [G for G in selfcheck.lemma_group_zoo(48) if G.order <= 12]
    assert len(small) == 24
    for G in small:
        assert subgroups(G) == _closed_subsets(G), G.name


FULL_ZOO_LATTICE_SIZES = {
    "cyclic(1)": 1, "cyclic(2)": 2, "cyclic(3)": 2, "cyclic(4)": 3, "cyclic(5)": 2,
    "cyclic(6)": 4, "cyclic(7)": 2, "cyclic(8)": 4, "cyclic(9)": 3, "cyclic(10)": 4,
    "cyclic(11)": 2, "cyclic(12)": 6, "cyclic(13)": 2, "cyclic(14)": 4, "cyclic(15)": 4,
    "cyclic(16)": 5, "cyclic(17)": 2, "cyclic(18)": 6, "cyclic(19)": 2, "cyclic(20)": 6,
    "cyclic(21)": 4, "cyclic(22)": 4, "cyclic(23)": 2, "cyclic(24)": 8,
    "abelian(2,2)": 5, "abelian(3,3)": 6, "abelian(4,2)": 8, "abelian(4,4)": 15,
    "abelian(5,5)": 8, "abelian(8,2)": 11, "abelian(8,4)": 22, "abelian(9,3)": 10,
    "abelian(16,2)": 14, "abelian(2,2,2)": 16, "abelian(3,2,2)": 10, "abelian(3,3,2)": 12,
    "abelian(3,3,3)": 28, "abelian(4,2,2)": 27, "abelian(4,3,2)": 16, "abelian(4,3,3)": 18,
    "abelian(4,4,2)": 54, "abelian(4,4,3)": 30, "abelian(5,2,2)": 10, "abelian(5,3,3)": 12,
    "abelian(5,4,2)": 16, "abelian(7,2,2)": 10, "abelian(8,2,2)": 38, "abelian(8,3,2)": 22,
    "abelian(9,2,2)": 15, "abelian(11,2,2)": 10, "abelian(2,2,2,2)": 67,
    "abelian(3,2,2,2)": 32, "abelian(3,3,2,2)": 30, "abelian(4,2,2,2)": 118,
    "abelian(4,3,2,2)": 54, "abelian(5,2,2,2)": 32, "abelian(2,2,2,2,2)": 374,
    "abelian(3,2,2,2,2)": 134,
    "dihedral(3)": 6, "dihedral(4)": 10, "dihedral(5)": 8, "dihedral(6)": 16,
    "dihedral(7)": 10, "dihedral(8)": 19, "dihedral(9)": 16, "dihedral(10)": 22,
    "dihedral(11)": 14, "dihedral(12)": 34,
    "quaternion8": 6, "symmetric(3)": 6, "symmetric(4)": 30, "alternating(4)": 10,
}


def test_full_zoo_lattice_sizes():
    sizes = {G.name: len(subgroups(G)) for G in selfcheck.lemma_group_zoo(48)}
    assert sizes == FULL_ZOO_LATTICE_SIZES
    assert sum(sizes.values()) == 1575


# sha256 over repr((name, table, subgroups)) of each zoo group in turn,
# recorded before the lattice joins became one coset walk
FULL_ZOO_DIGEST = "b8b2a324969eaa515bf412f19e766e5752ad097ccd12de5f3c7ba7abaa34a0f6"


def test_full_zoo_names_tables_and_lattices_are_pinned():
    digest = hashlib.sha256()
    zoo = selfcheck.lemma_group_zoo(48)
    for G in zoo:
        digest.update(repr((G.name, G.table, subgroups(G))).encode())
    assert len(zoo) == 72
    assert digest.hexdigest() == FULL_ZOO_DIGEST


# sha256 over repr((name, n, lhs, rhs, chain_counts)) of each full-zoo
# lemma_check, n over the divisors of |G| in turn, recorded before the
# checks read a cached lattice index and skipped impossible chains
FULL_ZOO_LEMMA_DIGEST = "e2ffa5cd5a197567027d8d769dc36b7fe5afe881e741d1aa239a5f23c8059877"


def test_full_zoo_lemma_reports_are_pinned():
    digest = hashlib.sha256()
    reports = 0
    for G in selfcheck.lemma_group_zoo(48):
        for n in arith.divisors(G.order):
            report = lemma_check(G, n)
            digest.update(repr((G.name, n, report.lhs, report.rhs, report.chain_counts)).encode())
            reports += 1
    assert reports == 373
    assert digest.hexdigest() == FULL_ZOO_LEMMA_DIGEST


def _all_pairs_chain_counts(G, n):
    """T(d) for each d | n by testing every pair H <= J of subgroups with
    (G:H) = n and |J| = d |H|: H normal in J, and some jH of order d."""
    table, subs = G.table, [frozenset(S) for S in subgroups(G)]
    inverse = [row.index(G.identity) for row in table]
    counts = {}
    for d in arith.divisors(n):
        counts[d] = 0
        for H in subs:
            for J in subs:
                if len(H) * n != G.order or len(J) != d * len(H) or not H <= J:
                    continue
                if any(table[table[j][h]][inverse[j]] not in H for j in J for h in H):
                    continue
                coset_orders = set()
                for j in J:
                    x, t = j, 1
                    while x not in H:
                        x, t = table[x][j], t + 1
                    coset_orders.add(t)
                counts[d] += d in coset_orders
    return counts


def test_chain_counts_equal_the_all_pairs_count_up_to_order_24():
    groups = selfcheck.lemma_group_zoo(24)
    assert len(groups) == 51
    for G in groups:
        for n in arith.divisors(G.order):
            assert lemma_check(G, n).chain_counts == _all_pairs_chain_counts(G, n), (G.name, n)


def test_lemma_check_refuses_the_cap_once_the_index_is_cached():
    G = dihedral(6)
    assert lemma_check(G, 2).equal
    assert G._lattice_index is not None
    for n in arith.divisors(G.order):
        with pytest.raises(MagnitudeError):
            lemma_check(G, n, cap=G.order - 1)


def test_the_lemma_suite_fails_when_every_quotient_is_called_cyclic(monkeypatch):
    # a planted fault: the pruned pairs of composite quotient order still
    # reach the coset test, which decides the check
    monkeypatch.setattr(oracles, "_quotient_has_coset_of_order", lambda G, mask, J, d: True)
    result = selfcheck.lemma_suite(max_table_order=oracles.DEFAULT_TABLE_CAP)
    assert result.checks == 373
    assert result.fail_count > 0
    assert all("chain-count" in message for message in result.failures)


def test_only_the_order_is_factored_and_only_composite_quotients_walk_cosets(monkeypatch):
    zoo = selfcheck.lemma_group_zoo(24)
    factored, walked = [], Counter()
    real_factors, real_walk = arith.prime_factors, oracles._quotient_has_coset_of_order
    monkeypatch.setattr(arith, "prime_factors", lambda n: factored.append(n) or real_factors(n))
    for G in zoo:
        subgroups(G)
    assert factored == [G.order for G in zoo]

    def walk(G, mask, J, d):
        walked[d] += 1
        return real_walk(G, mask, J, d)

    monkeypatch.setattr(oracles, "_quotient_has_coset_of_order", walk)
    assert all(lemma_check(G, n).equal for G in zoo for n in arith.divisors(G.order))
    # a quotient of prime order is cyclic by Lagrange
    assert sorted(walked) == [4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24]


def _closure(G, generators):
    """Products of pairs, added until none is new."""
    S = {G.identity, *generators}
    while True:
        grown = S | {G.table[a][b] for a in S for b in S}
        if grown == S:
            return frozenset(S)
        S = grown


def _mask(elements):
    return sum(1 << x for x in set(elements))


def _power_loop_order(G, x):
    order, cur = 1, x
    while cur != G.identity:
        order, cur = order + 1, G.table[cur][x]
    return order


def test_the_coset_walk_matches_brute_force_on_the_nonabelian_zoo():
    groups = [G for G in selfcheck.lemma_group_zoo(24) if not G.is_abelian()]
    assert len(groups) == 14
    for G in groups:
        for x in range(G.order):
            # the join with the trivial subgroup is the walk the associativity test starts from
            mask, cyclic_subgroup = oracles._join(G.table, 1 << G.identity, [G.identity], x)
            assert len(cyclic_subgroup) == _power_loop_order(G, x), (G.name, x)
            assert mask == _mask(cyclic_subgroup), (G.name, x)
        for S in subgroups(G):
            for g in range(G.order):
                mask, joined = oracles._join(G.table, _mask(S), list(S), g)
                # each element once, and the bitmask holds exactly the elements listed
                assert len(joined) == len(set(joined)) and mask == _mask(joined), (G.name, S, g)
                assert frozenset(joined) == _closure(G, {*S, g}), (G.name, S, g)


def _pi_oracle_groups():
    for p in (2, 3):
        for m in range(1, 4):
            for r in range(1, 4):
                for xi in range(0, 4):
                    yield AbelianGroup((p**r,) * m + (p ** min(xi, r),), cap=10**6)


def _psi_oracle_groups():
    for u in range(1, 31):
        for v in range(1, 31):
            yield AbelianGroup((u, v))


def _per_element_histogram(factors):
    """The order histogram with each cyclic factor enumerated afresh, one
    element at a time, on every call."""
    hist = Counter({1: 1})
    for f in factors:
        coord = Counter(f // math.gcd(c, f) for c in range(f))
        combined = Counter()
        for a, n_a in hist.items():
            for b, n_b in coord.items():
                combined[math.lcm(a, b)] += n_a * n_b
        hist = combined
    return hist


def test_order_histograms_from_the_shared_cyclic_cache_equal_fresh_enumeration():
    groups = [*_pi_oracle_groups(), *_psi_oracle_groups()]
    for ordered in (groups, groups[::-1]):  # each factor first met in another group
        oracles._cyclic_orders.cache_clear()
        for G in ordered:
            assert G.order_histogram() == _per_element_histogram(G.factors), G.factors


def test_a_changed_histogram_does_not_change_the_next_one():
    G = AbelianGroup((4, 6))
    want = _per_element_histogram(G.factors)
    first = G.order_histogram()
    first[12] += 100
    first[5] = 1
    del first[1]
    assert G.order_histogram() == want
    assert AbelianGroup((4,)).order_histogram() == Counter({1: 1, 2: 1, 4: 2})
    assert G.order_histogram() is not G.order_histogram()


def test_order_histogram_equals_the_per_element_count():
    for G in [*_pi_oracle_groups(), *_psi_oracle_groups()]:
        coordinates = product(*(range(f) for f in G.factors))
        want = Counter(_coordinate_order(x, G.factors) for x in coordinates)
        assert G.order_histogram() == want, G.factors


def _cyclic_subgroups_by_dedupe(Ghat, d):
    """Each element of order d builds its cyclic subgroup, and equal
    subgroups are merged as element sets."""
    seen = set()
    by_meet = Counter()
    for x in product(*(range(f) for f in Ghat.factors)):
        if _coordinate_order(x, Ghat.factors) != d:
            continue
        members = [tuple(k * c % f for c, f in zip(x, Ghat.factors)) for k in range(d)]
        H = frozenset(members)
        if H not in seen:
            seen.add(H)
            by_meet[sum(1 for m in members if not any(m[1:]))] += 1
    return by_meet


def test_dual_cyclic_subgroup_count_equals_the_dedupe_enumeration():
    for K in selfcheck._cyclic_profiles():
        for d in range(1, 13):
            Ghat = dual_group(K, d, cap=10**6)
            assert dual_cyclic_subgroup_count(Ghat) == _cyclic_subgroups_by_dedupe(Ghat, d), (
                K.p, K.n0, K.f0, K.xi, d,
            )


def _table_order_histogram(G):
    return Counter(_power_loop_order(G, x) for x in range(G.order))


def test_cyclic_and_abelian_tables_have_the_order_histogram_of_their_factors():
    for n in range(1, 41):
        assert _table_order_histogram(cyclic(n)) == AbelianGroup((n,)).order_histogram(), n
    for factors in selfcheck.abelian_factor_lists(64):
        G = oracles.abelian(*factors)
        assert _table_order_histogram(G) == AbelianGroup(factors).order_histogram(), factors


def test_dihedral_tables_have_phi_d_rotations_of_order_d_and_n_reflections():
    for n in range(1, 21):
        want = Counter({d: arith.euler_phi(d) for d in arith.divisors(n)})
        want[2] += n
        assert _table_order_histogram(dihedral(n)) == want, n


def test_quaternion_table_has_one_involution_and_six_elements_of_order_four():
    assert _table_order_histogram(quaternion8()) == Counter({1: 1, 2: 1, 4: 6})


def _cycle_lengths(perm):
    lengths, seen = [], set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def test_permutation_tables_have_the_orders_of_their_cycle_types():
    for k in range(1, 6):
        cycle_types = [_cycle_lengths(perm) for perm in permutations(range(k))]
        # a permutation is even when k minus its number of cycles is even
        for build, even_only in ((symmetric, False), (alternating, True)):
            want = Counter(
                math.lcm(*lengths)
                for lengths in cycle_types
                if not even_only or (k - len(lengths)) % 2 == 0
            )
            assert _table_order_histogram(build(k)) == want, (build.__name__, k)
