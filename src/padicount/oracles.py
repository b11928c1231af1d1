"""Brute-force verifiers, independent of every closed-form count.

Two substrates:

* finite abelian groups given by their cyclic factor orders (element
  orders and cyclic subgroups counted for the unit-group counts);
* arbitrary finite groups given by a Cayley table (full subgroup-lattice
  enumeration and the chain-count identity for conjugacy classes); the
  constructors cyclic, abelian, dihedral, quaternion8, symmetric and
  alternating build named, verified tables, writing the index of each
  product from a formula, or for permutations by lookup.

Everything proceeds by exhaustive enumeration, and no count here uses a
closed form from the paper.  The order histogram combines the cyclic
factors one at a time; each C_f is enumerated element by element, and
its (order, count) pairs are kept for the 256 factors used last, the
module's one cache.  The cyclic subgroups of the dual group are counted
from two such histograms, one for the distinguished factor and one for
the rest, without building a subgroup.  A table's cyclic subgroups come
from one power walk, each walked once, which also records every
element's order.  The subgroup lattice joins each subgroup H with each
cyclic subgroup <g> of prime-power order q^a whose <g^q> lies in H, not
with each element, and skips the generators that a join of prime index
already covers.  One coset walk, _join, closes every other set in a
table: the generators for the associativity test and the lattice joins.
The chain-count check reads a lattice index of bitmasks and exponents,
built once per table, and tests only the pairs that can form a chain:
no J whose exponent d does not divide, and none at all for T(1).  Caps
keep the worst cases bounded and raise MagnitudeError when exceeded.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from itertools import chain, combinations, permutations, repeat

from . import arith
from .errors import DomainError, MagnitudeError
from .profiles import BaseFieldProfile

DEFAULT_ABELIAN_CAP = 100_000
DEFAULT_TABLE_CAP = 48


def _require_integers(*args) -> None:
    if any(type(a) is not int for a in args):  # bool is a subclass of int
        raise DomainError(
            f"group constructor arguments must be integers, got {arith.format_repr(args)}"
        )
    if any(a < 1 for a in args):
        raise DomainError(
            f"group constructor arguments must be >= 1, got {arith.format_repr(args)}"
        )


class AbelianGroup:
    """Direct product of cyclic groups, given by its factor orders.

    Factors of order 1 are allowed so that a product can keep the
    positional layout of a construction even when a slot degenerates
    (positions matter to the dual-group oracle).
    """

    def __init__(self, factors, cap: int = DEFAULT_ABELIAN_CAP):
        factors = tuple(factors)
        _require_integers(*factors)
        order = math.prod(factors)
        if order > cap:
            order, cap = arith.format_decimal(order), arith.format_decimal(cap)
            raise MagnitudeError(f"group order {order} exceeds cap {cap}")
        self.factors = factors
        self.order = order

    def order_histogram(self) -> Counter:
        """order -> element count.

        An element's order is the lcm of its coordinate orders, so the
        histogram of a product is built one cyclic factor at a time: each
        pair (order a with n_a elements so far, order b with n_b
        coordinates in the next factor) adds n_a * n_b to lcm(a, b).
        This counts every element once without visiting each one.
        """
        hist = {1: 1}
        for f in self.factors:
            combined = {}
            for a, n_a in hist.items():
                for b, n_b in _cyclic_orders(f):
                    m = math.lcm(a, b)
                    combined[m] = combined.get(m, 0) + n_a * n_b
            hist = combined
        return Counter(hist)


@functools.lru_cache(maxsize=256)
def _cyclic_orders(f: int) -> tuple[tuple[int, int], ...]:
    """C_f's (order, element count) pairs: element c has order f / gcd(c, f),
    counted element by element.  Cached, and a tuple, so no caller can
    change what the next one reads."""
    return tuple(Counter(map(f.__floordiv__, map(math.gcd, range(f), repeat(f)))).items())


def dual_group(K: BaseFieldProfile, d: int, cap: int = DEFAULT_ABELIAN_CAP) -> AbelianGroup:
    """The dual-side product for degree d over K.

    C_d x C_z x C_{p^r}^n0 x C_{p^{min(xi,r)}} with d = p^r * k,
    gcd(k, p) = 1 and z = gcd(k, p^f0 - 1).  The C_d factor comes
    first; it is the distinguished coordinate for intersection counts.
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    r, k = arith.p_valuation(d, K.p)
    z = arith.gcd_p_power_minus_one(k, K.p, K.f0)
    factors = (d, z) + (K.p**r,) * K.n0 + (K.p ** min(K.xi, r),)
    return AbelianGroup(factors, cap=cap)


def dual_cyclic_subgroup_count(Ghat: AbelianGroup, d: int) -> Counter:
    """Cyclic subgroups H of Ghat of order d, counted by |H intersect B|.

    B is the distinguished first factor, which must be C_d, embedded
    coordinate-wise.  Maps each intersection order f to the number of
    subgroups H meeting B in a subgroup of order f.

    Counts without building a subgroup.  Write x = (x_B, x_rest) with
    x_B of order a and x_rest of order b.  Then <x> has order lcm(a, b),
    and k*x lies in B exactly when b | k, so |<x> intersect B| = d / b.
    The (a, b) pairs come from two order histograms, of C_d and of the
    rest, both from AbelianGroup.order_histogram: each pair with lcm(a, b) = d
    adds n_a * n_b elements of order d meeting B in order d / b.  Every
    generator of <x> has the same (a, b), so each count divides exactly
    by the number of generators of a cyclic group of order d, read off
    the C_d histogram; a remainder raises ConsistencyError.
    """
    if Ghat.factors[:1] != (d,):
        d, factors = arith.format_decimal(d), arith.format_repr(Ghat.factors)
        raise DomainError(f"distinguished first factor must be C_{d}, factors are {factors}")
    if type(d) is not int:  # bool is a subclass of int; a float may equal the factor
        raise DomainError(f"d must be an integer, got {arith.format_repr(d)}")
    first = AbelianGroup(Ghat.factors[:1], cap=Ghat.order).order_histogram()
    rest = AbelianGroup(Ghat.factors[1:], cap=Ghat.order).order_histogram()
    elements = Counter()
    for a, n_a in first.items():
        for b, n_b in rest.items():
            if math.lcm(a, b) == d:
                elements[d // b] += n_a * n_b
    where = ("cyclic subgroups of order {} in {}", d, Ghat.factors)
    return Counter({f: arith.exact_quotient(n, first[d], *where) for f, n in elements.items()})


class GroupTable:
    """A finite group as an order x order multiplication table on indices.

    Construction verifies the group axioms outright: an identity exists,
    every row and column is a permutation, and the law is associative.
    Associativity is checked by Light's test: (a*b)*c = a*(b*c) for all
    a, c and for b in a generating set only.  The elements b that pass
    form a submagma, so they are the whole table once the generators
    pass.  The generating set is built greedily by the coset walk, which
    forms products alone, since inverses are not known to exist yet.
    """

    def __init__(self, table, name: str = ""):
        order = len(table)
        if order < 1:
            raise DomainError("group table must be non-empty")
        rows = [list(row) for row in table]
        if any(len(row) != order for row in rows):
            raise DomainError("group table must be square")
        if (
            set(map(type, chain.from_iterable(rows))) != {int}  # bool is a subclass of int
            or min(map(min, rows)) < 0
            or max(map(max, rows)) >= order
        ):
            raise DomainError("table entries must be element indices")

        columns = list(map(list, zip(*rows)))
        indices = list(range(order))
        identity = next((e for e in indices if rows[e] == indices and columns[e] == indices), None)
        if identity is None:
            raise DomainError("table has no identity element")
        everything = set(indices)
        for x in indices:
            if set(rows[x]) != everything:
                raise DomainError(f"row {x} is not a permutation")
            if set(columns[x]) != everything:
                raise DomainError(f"column {x} is not a permutation")
        for b in _magma_generators(rows, identity):
            rb = rows[b]
            for a in indices:
                ra = rows[a]
                rab = rows[ra[b]]
                if rab != list(map(ra.__getitem__, rb)):
                    c = next(c for c in indices if rab[c] != ra[rb[c]])
                    raise DomainError(f"table is not associative at ({a}, {b}, {c})")

        self.table = rows
        self.order = order
        self.identity = identity
        self.name = name or f"group of order {order}"
        self._inverse = [row.index(identity) for row in rows]
        self._abelian = rows == columns
        self._subgroups = None
        self._orders = None
        self._lattice_index = None

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self._inverse[g]]

    def is_abelian(self) -> bool:
        return self._abelian

    def __repr__(self):
        return f"GroupTable({self.name}, order={self.order})"


def _join(table, H, g) -> frozenset:
    """The subgroup generated by the subgroup H (holding the identity) and g.

    Walks left cosets: each element reached is multiplied by g on the
    right, and a product y outside the set brings in its whole coset yH.
    The set stays a union of left cosets of H, closed under right
    multiplication by H; once it is closed under g as well it is <H, g>:
    two lookups per element, abelian or not.  On a table not yet known
    to be associative each element reached is still a product of H and
    g; cosets may then overlap, but each one brings a new element, so
    the to-do list stays below (order + 1) * |H| entries.
    """
    joined = set(H)
    todo = list(H)
    for y in todo:
        z = table[y][g]
        if z not in joined:
            row = table[z]
            coset = [row[h] for h in H]
            joined.update(coset)
            todo.extend(coset)
    return frozenset(joined)


def _magma_generators(rows, identity: int) -> list[int]:
    """A set that generates the table under its product alone: each
    element not yet reached joins it, and the walk extends the reached set."""
    reached = frozenset([identity])
    generators = []
    for g in range(len(rows)):
        if g not in reached:
            generators.append(g)
            reached = _join(rows, reached, g)
    return generators


def subgroups(G: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> list[tuple[int, ...]]:
    """Every subgroup of G, each as a sorted tuple of element indices.

    One power walk lists the cyclic subgroups: each element not yet
    reached is walked to the identity, x, x^2, ..., x^n = e, and every
    generator x^k with gcd(k, n) = 1 is marked as reached with order n,
    so each cyclic subgroup is walked once and each element's order is
    read from it.  Of each cyclic subgroup <g> of prime-power order
    n = q^a, g is kept together with g^q.

    The lattice walk starts from the trivial subgroup and joins every
    known subgroup H with each kept g outside H whose g^q lies in H (one
    new generator at a time) until no new subgroup appears.  The fixed
    point is complete.  Every element is a product of commuting powers of
    itself of prime-power order, so every subgroup S is generated by its
    cyclic subgroups of prime-power order.  Add them to the trivial
    subgroup in order of increasing order: <g^q> has order q^(a-1) and
    lies in S, so it is one of those added before <g> (or trivial), and
    g^q lies in the subgroup built so far.  Each step of that chain is a
    join the walk makes, so S is found.

    A join J = <H, g> of prime index over H covers the rest of J: for g'
    in J outside H, <H, g'> lies between H and J and is larger than H,
    so by Lagrange it is J.  Such generators are skipped for this H, as
    their join is already found, and the fixed point stays the same.
    """
    if G.order > cap:
        raise MagnitudeError(f"group order {G.order} exceeds cap {arith.format_decimal(cap)}")
    if G._subgroups is None:
        table, identity = G.table, G.identity
        orders = [0] * G.order
        generators = []
        for x in range(G.order):
            if orders[x]:
                continue
            powers = [identity]  # x^0, x^1, ..., x^(n-1)
            while (y := table[powers[-1]][x]) != identity:
                powers.append(y)
            n = len(powers)
            for k in range(n):
                if math.gcd(k, n) == 1:
                    orders[powers[k]] = n
            factors = arith.prime_factors(n)
            if len(factors) == 1:
                generators.append((x, powers[factors[0][0] % n]))
        primes = {q for q, _ in arith.prime_factors(G.order)}
        trivial = frozenset([identity])
        found = {trivial}
        work = [trivial]
        while work:
            H = work.pop()
            covered = set(H)
            for g, root in generators:
                if g in covered or root not in H:
                    continue
                J = _join(table, H, g)
                if len(J) // len(H) in primes:
                    covered |= J
                if J not in found:
                    found.add(J)
                    work.append(J)
        G._orders = orders
        G._subgroups = sorted((tuple(sorted(S)) for S in found), key=lambda t: (len(t), t))
    return G._subgroups


LemmaReport = namedtuple("LemmaReport", "n lhs rhs chain_counts equal")
LemmaReport.__doc__ = """Both sides of the chain-count identity for index-n subgroups.

lhs counts conjugacy classes of index-n subgroups; rhs is
(1/n) * sum over d | n of phi(d) * T(d), where T(d) = chain_counts[d]
counts chains H normal-in J <= G with (G:H) = n and J/H cyclic of
order d; equal is lhs == rhs."""


def _is_normal_in(G: GroupTable, H: frozenset, J) -> bool:
    table = G.table
    inverse = G._inverse
    for j in J:
        row = table[j]
        inv_j = inverse[j]
        for h in H:
            if table[row[h]][inv_j] not in H:
                return False
    return True


def _quotient_has_coset_of_order(G: GroupTable, H: frozenset, J, d: int) -> bool:
    """Whether J/H (H normal in J) contains a coset of order exactly d:
    some jH whose t-th power first lies in H at t = d."""
    table = G.table
    for j in J:
        x, t = j, 1
        while x not in H:
            x = table[x][j]
            t += 1
        if t == d:
            return True
    return False


def _lattice_index(G: GroupTable, subs) -> dict[int, list[tuple[int, frozenset, int]]]:
    """Subgroup order -> (bitmask, element set, exponent) of each subgroup
    in subs, the lattice of G, built once per table.  The exponent is the
    lcm of the element orders that the power walk of subgroups recorded."""
    if G._lattice_index is None:
        index = {}
        for S in subs:
            mask = sum(map((1).__lshift__, S))
            exponent = math.lcm(*map(G._orders.__getitem__, S))
            index.setdefault(len(S), []).append((mask, frozenset(S), exponent))
        G._lattice_index = index
    return G._lattice_index


def lemma_check(G: GroupTable, n: int, cap: int = DEFAULT_TABLE_CAP) -> LemmaReport:
    """Verify the chain-count identity for index-n subgroups of G.

    The left side counts conjugacy classes of index-n subgroups directly.
    The right side sums phi(d) * T(d) over d | n, T(d) counting chains
    H normal-in J <= G with (G:H) = n and J/H cyclic of order d, and
    divides by n.  The family checked is all subgroups of G, which is
    closed under conjugation, so the identity must hold.

    Only pairs that can form a chain are tested.  T(1) counts the index-n
    subgroups themselves, since H <= J with |J| = |H| means J = H.  For
    d > 1, a coset jH of order d needs d | ord(j), so a J whose exponent
    d does not divide is skipped; containment is one test on bitmasks.
    """
    if n < 1 or G.order % n:
        raise DomainError(f"n = {arith.format_decimal(n)} does not divide |G| = {G.order}")
    by_order = _lattice_index(G, subgroups(G, cap=cap))
    target = G.order // n
    index_n = by_order.get(target, [])

    abelian = G.is_abelian()
    if abelian:  # every subgroup is its own conjugacy class
        lhs = len(index_n)
    else:
        seen = set()
        lhs = 0
        for _, H, _ in index_n:
            if H in seen:
                continue
            lhs += 1
            for g in range(G.order):
                seen.add(frozenset(G.conjugate(g, x) for x in H))

    chain_counts = {1: len(index_n)}
    for d in arith.divisors(n)[1:]:
        above = [(j, J) for j, J, exponent in by_order.get(target * d, ()) if exponent % d == 0]
        count = 0
        for h, H, _ in index_n:
            for j, J in above:
                if h & j != h:
                    continue
                if not abelian and not _is_normal_in(G, H, J):
                    continue
                if _quotient_has_coset_of_order(G, H, J, d):
                    count += 1
        chain_counts[d] = count

    weighted = sum(arith.euler_phi(d) * c for d, c in chain_counts.items())
    rhs = arith.exact_quotient(weighted, n, "chain-count sum for {}", G.name)
    return LemmaReport(n=n, lhs=lhs, rhs=rhs, chain_counts=chain_counts, equal=lhs == rhs)


def _product_table(factors, name: str) -> GroupTable:
    _require_integers(*factors)
    # (a, x) in (product so far) x C_f has index a*f + x: the order of itertools.product
    table = [[0]]
    for f in factors:
        table = [
            [t * f + (x + y) % f for t in row for y in range(f)] for row in table for x in range(f)
        ]
    return GroupTable(table, name=name)


def cyclic(n: int) -> GroupTable:
    """C_n."""
    return _product_table((n,), f"cyclic({n})")


def abelian(*factors: int) -> GroupTable:
    """C_{f1} x C_{f2} x ..."""
    return _product_table(factors, f"abelian({','.join(map(str, factors))})")


def dihedral(n: int) -> GroupTable:
    """The dihedral group of order 2n."""
    _require_integers(n)
    # r^i s^b has index b*n + i; s r s = r^-1
    rows = [
        [(b1 ^ b2) * n + (i1 - i2 if b1 else i1 + i2) % n for b2 in range(2) for i2 in range(n)]
        for b1 in range(2)
        for i1 in range(n)
    ]
    return GroupTable(rows, name=f"dihedral({n})")


_QUATERNION_UNITS = {
    # (u1, u2) -> (sign, u3) on the basis 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion8() -> GroupTable:
    """The quaternion group {+-1, +-i, +-j, +-k}."""
    # (-1)^s * unit u has index 2u + s, and a sign flips the low bit
    units = {key: 2 * u3 + sign for key, (sign, u3) in _QUATERNION_UNITS.items()}
    rows = [
        [units[u1, u2] ^ s1 ^ s2 for u2 in range(4) for s2 in range(2)]
        for u1 in range(4)
        for s1 in range(2)
    ]
    return GroupTable(rows, name="quaternion8")


def _permutation_table(k: int, name: str, even_only: bool = False) -> GroupTable:
    _require_integers(k)
    elements = [
        p for p in permutations(range(k))
        if not even_only or sum(a > b for a, b in combinations(p, 2)) % 2 == 0
    ]
    index = {p: i for i, p in enumerate(elements)}
    # a * b is the composite i -> a[b[i]]
    rows = [[index[tuple(a[i] for i in b)] for b in elements] for a in elements]
    return GroupTable(rows, name=name)


def symmetric(k: int) -> GroupTable:
    """S_k, on k! elements."""
    return _permutation_table(k, f"symmetric({k})")


def alternating(k: int) -> GroupTable:
    """A_k, the even permutations of S_k."""
    return _permutation_table(k, f"alternating({k})", even_only=True)
