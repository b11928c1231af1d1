"""Brute-force verifiers, independent of every closed-form count.

Two substrates:

* finite abelian groups given by their cyclic factor orders (element
  orders and cyclic subgroups counted for the unit-group counts);
* arbitrary finite groups given by a Cayley table (full subgroup-lattice
  enumeration and the chain-count identity for conjugacy classes); the
  constructors cyclic, abelian, dihedral, quaternion8, symmetric and
  alternating build named, verified tables, writing the index of each
  product from a formula, or for permutations by lookup.

Everything is exhaustive enumeration; no count here uses a closed form
from the paper.  The order histogram combines the cyclic factors one at
a time, each C_f enumerated element by element; the (order, count)
pairs of the 256 factors used last are the module's one cache.  The
dual group's cyclic subgroups are counted from two such histograms, of
the distinguished factor and of the rest, without building a subgroup.
A set of table elements is an int bitmask, bit x for element x.  One
power walk finds a table's cyclic subgroups.  The lattice walk takes the
subgroups by increasing order and joins each H with each cyclic <g> of
prime-power order q^a whose <g^q> lies in H, skipping the generators of
every known subgroup of prime index over H.  One coset walk, _join,
closes every other set in a table: the generators for the associativity
test and the lattice joins.  The chain-count check reads a lattice
index of bitmasks and exponents, built once per table, and tests only
the pairs that can form a chain.  Caps keep the worst cases bounded and
raise MagnitudeError when exceeded.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from itertools import chain, combinations, permutations, repeat
from operator import itemgetter, or_

from . import arith
from .errors import DomainError, MagnitudeError
from .profiles import BaseFieldProfile

DEFAULT_ABELIAN_CAP = 100_000
DEFAULT_TABLE_CAP = 48


def _require_integers(*args) -> None:
    for a in args:
        if type(a) is not int:  # bool is a subclass of int
            raise DomainError(
                f"group constructor arguments must be integers, got {arith.format_repr(args)}"
            )
    if min(args, default=1) < 1:
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
        histogram of a product is built one cyclic factor at a time from
        the first one's: each pair (order a with n_a elements so far, order
        b with n_b coordinates in the next factor) adds n_a * n_b to
        lcm(a, b).  This counts every element once without visiting each.
        """
        factors, lcm = iter(self.factors), math.lcm
        hist = dict(_cyclic_orders(next(factors, 1)))
        for f in factors:
            combined, pairs = {}, _cyclic_orders(f)
            get = combined.get
            for a, n_a in hist.items():
                for b, n_b in pairs:
                    m = lcm(a, b)
                    combined[m] = get(m, 0) + n_a * n_b
            hist = combined
        counts = Counter()
        dict.update(counts, hist)  # Counter(hist) would first test hist against the Mapping ABC
        return counts


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


def dual_cyclic_subgroup_count(Ghat: AbelianGroup) -> Counter:
    """Cyclic subgroups H of Ghat of order d, counted by |H intersect B|.

    B is the distinguished first factor, C_d, embedded coordinate-wise, and
    d is read off it.  Maps each intersection order f to the number of
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
    if not Ghat.factors:
        raise DomainError("the dual group has no factors, so no distinguished first factor")
    d = Ghat.factors[0]
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

    The rows are tested first, the columns only when a row is broken or
    Light's test fails: an identity, rows that are permutations and a
    pass of Light's test make a group, whose columns are permutations.
    So each refusal is the one a test of every line, row x before
    column x, ahead of the associativity test would give.
    """

    def __init__(self, table, name: str = ""):
        order = len(table)
        if order < 1:
            raise DomainError("group table must be non-empty")
        rows = [list(row) for row in table]
        if any(len(row) != order for row in rows):
            raise DomainError("group table must be square")
        if set(map(type, chain.from_iterable(rows))) != {int}:  # bool is a subclass of int
            raise DomainError("table entries must be element indices")

        columns = list(map(list, zip(*rows)))
        indices = list(range(order))
        everything = set(indices)
        # with every row a permutation, every entry is an index
        rows_broken = any(set(row) != everything for row in rows)
        if rows_broken and (min(map(min, rows)) < 0 or max(map(max, rows)) >= order):
            raise DomainError("table entries must be element indices")
        identity = next((e for e in indices if rows[e] == indices and columns[e] == indices), None)
        if identity is None:
            raise DomainError("table has no identity element")
        if rows_broken:
            _refuse_a_broken_line(rows, columns)
        as_tuples = list(map(tuple, rows))
        for b in _magma_generators(rows, identity):
            # for every a, row a*b is row a read at the entries of row b
            read = list(map(itemgetter(*rows[b]), as_tuples))
            if list(map(as_tuples.__getitem__, columns[b])) != read:
                _refuse_a_broken_line(rows, columns)
                a, c = next((a, c) for a in indices for c in indices
                            if rows[rows[a][b]][c] != rows[a][rows[b][c]])
                raise DomainError(f"table is not associative at ({a}, {b}, {c})")

        self.table = rows
        self.order = order
        self.identity = identity
        self.name = name or f"group of order {order}"
        self._inverse = [row.index(identity) for row in rows]
        self._abelian = rows == columns
        self._subgroups = self._lattice_index = self._cyclic = self._orders = None  # by subgroups

    def is_abelian(self) -> bool:
        return self._abelian

    def __repr__(self):
        return f"GroupTable({self.name}, order={self.order})"


def _refuse_a_broken_line(rows, columns) -> None:
    """Raise DomainError naming the first line that is not a permutation,
    row x before column x, if there is one."""
    everything = set(range(len(rows)))
    for x, lines in enumerate(zip(rows, columns)):
        for kind, line in zip(("row", "column"), lines):
            if set(line) != everything:
                raise DomainError(f"{kind} {x} is not a permutation")


def _join(table, mask: int, H, g) -> tuple[int, list[int]]:
    """<H, g> as its bitmask and its element list, for H the subgroup of
    bitmask mask and element list H (holding the identity).

    Walks left cosets down g's column: each element reached is multiplied
    by g on the right, and a product z outside the mask brings in its
    coset zH, whose bits are ORed in.  The set stays a union of left
    cosets of H, closed under right multiplication by H; once it is
    closed under g as well it is <H, g>: two lookups per element, abelian
    or not.  On a table not yet known to be associative each element
    reached is still a product of H and g; cosets may then overlap, but
    each one brings a new bit, so the list stays below (order + 1) * |H|
    entries.  The rows must be permutations: a coset with a repeated
    element would carry into the wrong bits when summed.
    """
    coset_of = itemgetter(*H) if len(H) > 1 else lambda row: (row[H[0]],)  # row z -> zH
    joined = list(H)
    for y in joined:
        z = table[y][g]
        if not mask >> z & 1:
            coset = coset_of(table[z])
            mask |= sum(map((1).__lshift__, coset))
            joined += coset
    return mask, joined


def _magma_generators(rows, identity: int) -> list[int]:
    """A set that generates the table under its product alone: each
    element not yet reached joins it, and the walk extends the reached set."""
    reached, H, generators = 1 << identity, [identity], []
    for g in range(len(rows)):
        if not reached >> g & 1:
            generators.append(g)
            reached, H = _join(rows, reached, H, g)
            H = list(dict.fromkeys(H))  # cosets may overlap before associativity is known
    return generators


def subgroups(G: GroupTable, cap: int = DEFAULT_TABLE_CAP) -> list[tuple[int, ...]]:
    """Every subgroup of G, each as a sorted tuple of element indices.

    One power walk lists the cyclic subgroups: each element not yet
    reached is walked to the identity, x, x^2, ..., x^n = e, and every
    generator x^k with gcd(k, n) = 1 is given the bitmask of <x>, so
    each cyclic subgroup is walked once.  Of each cyclic subgroup <g> of
    prime-power order n = q^a, g is kept together with g^q; n divides
    |G|, so it is a power of q when q is the one prime of |G| dividing it,
    and nothing is factored but |G|.

    The lattice walk takes the known subgroups H by increasing order,
    from the trivial one, and joins each with every kept g outside H
    whose g^q lies in H; a join only adds larger subgroups, which the
    walk reaches later.  It finds every subgroup S: S is generated by
    its cyclic subgroups of prime-power order, as every element is a
    product of commuting powers of itself of prime-power order.  Add
    them to the trivial subgroup by increasing order: <g^q> has order
    q^(a-1) and lies in S, so it is one added before <g> (or trivial),
    and g^q lies in the subgroup built so far.  Each step of that chain
    is a join the walk makes or one whose result it knows.

    A subgroup J of prime index over H covers J outside H: for g' there,
    H < <H, g'> <= J, so <H, g'> = J by Lagrange.  Every such J found so
    far, and every such join H makes, is ORed into H's covered bits, and
    covered generators are not joined: each skipped join's result is known.

    The walk keeps each subgroup as bitmask -> element list.  The first
    call writes, from those, G._subgroups and, for lemma_check,
    G._lattice_index: subgroup order -> (bitmask, element tuple,
    exponent) of each subgroup in list order, the exponent the lcm of
    its element orders; G._cyclic, x -> bitmask of <x>; G._orders, x -> |<x>|.
    """
    if G.order > cap:
        raise MagnitudeError(f"group order {G.order} exceeds cap {arith.format_decimal(cap)}")
    if G._subgroups is None:
        table, identity = G.table, G.identity
        primes = [q for q, _ in arith.prime_factors(G.order)]
        cyclic = [0] * G.order  # x -> the bitmask of <x>
        generators = []
        for x in range(G.order):
            if cyclic[x]:
                continue
            powers = [identity]  # x^0, x^1, ..., x^(n-1)
            while (y := table[powers[-1]][x]) != identity:
                powers.append(y)
            n = len(powers)
            mask = sum(map((1).__lshift__, powers))
            for k in range(n):
                if math.gcd(k, n) == 1:
                    cyclic[powers[k]] = mask
            dividing = [q for q in primes if n % q == 0]
            if len(dividing) == 1:
                generators.append((x, 1 << x, 1 << powers[dividing[0] % n]))
        found = {1 << identity: [identity]}  # bitmask -> element list
        by_order = {1: [1 << identity]}  # order -> the bitmasks found so far
        for size in range(1, G.order + 1):
            for h in by_order.get(size, ()):
                H = found[h]
                covered = functools.reduce(or_, (j for q in primes for j in by_order.get(size * q, ())
                                                 if h & j == h), h)
                for g, bit, root in generators:
                    if covered & bit or not h & root:
                        continue
                    j, J = _join(table, h, H, g)
                    if len(J) // size in primes:
                        covered |= j
                    if j not in found:
                        found[j] = J
                        by_order.setdefault(len(J), []).append(j)
        orders = list(map(int.bit_count, cyclic))  # x -> |<x>|
        index = {}
        for _, S, mask in sorted((len(S), tuple(sorted(S)), mask) for mask, S in found.items()):
            exponent = math.lcm(*map(orders.__getitem__, S))
            index.setdefault(len(S), []).append((mask, S, exponent))
        G._subgroups = [S for level in index.values() for _, S, _ in level]
        G._lattice_index = index
        G._cyclic, G._orders = cyclic, orders
    return G._subgroups


LemmaReport = namedtuple("LemmaReport", "n lhs rhs chain_counts equal")
LemmaReport.__doc__ = """Both sides of the chain-count identity for index-n subgroups.

lhs counts conjugacy classes of index-n subgroups; rhs is
(1/n) * sum over d | n of phi(d) * T(d), where T(d) = chain_counts[d]
counts chains H normal-in J <= G with (G:H) = n and J/H cyclic of
order d; equal is lhs == rhs."""


def _is_normal_in(G: GroupTable, mask: int, H, J) -> bool:
    """Whether j H j^-1 lies in H, of bitmask mask, for every j in J."""
    table, inverse = G.table, G._inverse
    for j in J:
        row = table[j]
        inv_j = inverse[j]
        for h in H:
            if not mask >> table[row[h]][inv_j] & 1:
                return False
    return True


def _quotient_has_coset_of_order(G: GroupTable, mask: int, J, d: int) -> bool:
    """Whether J/H (H normal in J, of bitmask mask) contains a coset of order
    exactly d: some jH whose t-th power first lies in H at t = d, that is,
    with |<j>| = d * |<j> meet H|, the meet's size read as a bit count."""
    cyclic, orders = G._cyclic, G._orders
    for j in J:
        if orders[j] == d * (cyclic[j] & mask).bit_count():
            return True
    return False


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
    d does not divide is skipped.  A quotient J/H of prime order d is
    cyclic by Lagrange, so the coset walk runs only for composite d.
    Subgroups are compared as bitmasks:
    containment is one AND, a conjugate is named by its bitmask, and a
    membership test reads one bit.
    """
    if n < 1 or G.order % n:
        raise DomainError(f"n = {arith.format_decimal(n)} does not divide |G| = {G.order}")
    subgroups(G, cap=cap)  # refuses the cap on every call, cached or not
    by_order = G._lattice_index
    target = G.order // n
    index_n = by_order.get(target, [])

    abelian = G.is_abelian()
    if abelian:  # every subgroup is its own conjugacy class
        lhs = len(index_n)
    else:
        table, inverse = G.table, G._inverse
        seen = set()  # the bitmasks of the conjugates of each class counted
        lhs = 0
        for h, H, _ in index_n:
            if h in seen:
                continue
            lhs += 1
            for row, inv_g in zip(table, inverse):
                seen.add(sum(1 << table[row[x]][inv_g] for x in H))

    chain_counts = {1: len(index_n)}
    for d in arith.divisors(n)[1:]:
        above = [(j, J) for j, J, exponent in by_order.get(target * d, ()) if exponent % d == 0]
        prime, count = arith.is_prime(d), 0
        for h, H, _ in index_n:
            for j, J in above:
                if h & j == h and (abelian or _is_normal_in(G, h, H, J)):
                    count += prime or _quotient_has_coset_of_order(G, h, J, d)
        chain_counts[d] = count

    weighted = sum(arith.euler_phi(d) * c for d, c in chain_counts.items())
    rhs = arith.exact_quotient(weighted, n, "chain-count sum for {}", G.name)
    return LemmaReport(n=n, lhs=lhs, rhs=rhs, chain_counts=chain_counts, equal=lhs == rhs)


def _product_table(factors, name: str) -> GroupTable:
    _require_integers(*factors)
    # (a, x) in (product so far) x C_f has index a*f + x: the order of itertools.product
    table = [[0]]
    for f in factors:
        shifts = [[(x + y) % f for y in range(f)] for x in range(f)]
        table = [[t * f + z for t in row for z in shift] for row in table for shift in shifts]
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
