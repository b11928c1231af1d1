"""Base-field input model: absolute invariants plus cyclotomic tower data.

A base field K is described by its prime p, absolute ramification e0 and
absolute inertia f0, together with one datum per level i >= 1 giving the
ramification and inertia of the extension K(zeta_{p^i})/K.  The tower
data is genuine extra input: it is not determined by (p, e0, f0) alone,
so it comes from a JSON profile file or from a builder: cyclotomic_profile
gives the family Q_p(zeta_{p^m}), Q_p among them, and unramified_profile
the unramified extension of degree g of any profile.

Every count takes a BaseFieldProfile: the cyclic counts read the
absolute degree n0, the absolute inertia f0 and xi, where p^xi is the
order of the group of p-power roots of unity in K.

A BaseFieldProfile is validated once, types included, when it is built:
an invalid one cannot exist, so the evaluators and the arithmetic they
call never re-check p or the tower.  It is an immutable plain class, not
a namedtuple like each level's CyclotomicDatum, whose _replace and _make
skip validation.  Its two private memos let the evaluators compute each
value once while the profile lives (see _Memo).
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter, namedtuple
from functools import partial

from . import arith
from .errors import DomainError, ProfileTooShortError


class _Memo(dict):
    """compute(*args) stored under args, computed on the first lookup.

    A hit is a plain subscript, memo[args]; a function of one argument
    is keyed by that argument alone.  A guarded closed form takes the
    magnitude limit as an argument, so a tighter limit misses and raises
    again.  Every stored value is a deterministic function of its key,
    so threads may share a memo: a race at worst computes the same value
    twice.  A compute that raises stores nothing.  A memo, like any dict,
    cannot be hashed, so no memo sits in a key.
    """

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, args):
        value = self[args] = self.compute(*args) if type(args) is tuple else self.compute(args)
        return value


CyclotomicDatum = namedtuple("CyclotomicDatum", "i e f")
CyclotomicDatum.__doc__ = "Ramification and inertia of the level-i cyclotomic extension of the base."


class BaseFieldProfile:
    """A base field: (p, e0, f0) and its cyclotomic tower, levels 1..depth.

    Level 0 is implicitly the trivial datum (1, 1).  Construction refuses
    a cyclotomic that is not iterable, a p, e0, f0, i, e or f that is not
    an int (bools included) and a level that is not a CyclotomicDatum,
    then runs validate(); each raises DomainError.  validate()'s refusal
    names the first 10 violations of each kind (a kind is a message with
    its numbers removed) and how many more there are, so each instance
    describes a field: p is prime, e0, f0 >= 1, and the tower satisfies
    the level invariants, among them that each step past level 1 has
    degree 1 or p.

    Setting or deleting any attribute raises AttributeError.  Equality,
    hashing, repr, copy and pickle go through one key, (p, e0, f0,
    cyclotomic); a copy is built, and so validated, anew.  The private
    _memo maps each function to its own _Memo, so K._memo[f][args] is
    f(*args), computed once while K lives, and _bound does the same for
    functions of K, so K._bound[g][args] is g(K, *args).  Neither is in
    any key, and a copy starts with both empty.  The private _rows, in no
    key either, is ((0, 1, 1), *cyclotomic): row i is level i as (i, e, f).
    """

    __slots__ = ("p", "e0", "f0", "cyclotomic", "_memo", "_bound", "_rows")

    def __init__(self, p: int, e0: int, f0: int, cyclotomic=()):
        try:  # iter runs no generator, so a TypeError a level raises stays its own
            levels = iter(cyclotomic)
        except TypeError:
            got = arith.format_repr(cyclotomic)
            raise DomainError(f"invalid profile: cyclotomic is not iterable, got {got}") from None
        cyclotomic = tuple(levels)
        # position 0 holds (p, e0, f0), and position i >= 1 level i
        for pos, datum in enumerate(((p, e0, f0), *cyclotomic)):
            if pos and not isinstance(datum, CyclotomicDatum):
                got = type(datum).__name__
                raise DomainError(f"invalid profile: level {pos} is a {got}, not a CyclotomicDatum")
            for name, value in zip(datum._fields if pos else ("p", "e0", "f0"), datum):
                if type(value) is not int:  # bool is a subclass of int
                    name = f"level {pos}: {name}" if pos else name
                    got = arith.format_repr(value)
                    raise DomainError(f"invalid profile: {name} must be an integer, got {got}")
        bound = _Memo(lambda g: _Memo(partial(g, self)))
        rows = ((0, 1, 1), *cyclotomic)
        for name, value in zip(self.__slots__, (p, e0, f0, cyclotomic, _Memo(_Memo), bound, rows)):
            object.__setattr__(self, name, value)
        problems = validate(self)
        if problems:
            # name 10 of each kind; a kind is a message with its numbers removed
            seen, shown = Counter(), []
            for problem in problems:
                kind = re.sub(r"\d+", "", problem)
                seen[kind] += 1
                if seen[kind] <= 10:
                    shown.append(problem)
            more = len(problems) - len(shown)
            tail = f"; and {more} more" if more else ""
            raise DomainError("invalid profile: " + "; ".join(shown) + tail)

    def _key(self):
        return (self.p, self.e0, self.f0, self.cyclotomic)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        key = map(arith.format_repr, self._key())
        return "BaseFieldProfile(p={}, e0={}, f0={}, cyclotomic={})".format(*key)

    def __reduce__(self):
        return (type(self), self._key())

    def __setattr__(self, name, *_):
        raise AttributeError(f"BaseFieldProfile is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def n0(self) -> int:
        return self.e0 * self.f0

    @property
    def depth(self) -> int:
        return len(self.cyclotomic)

    @property
    def xi(self) -> int:
        """Largest i whose level-i cyclotomic extension is trivial.

        Equivalently, p^xi is the order of the group of p-power roots of
        unity in the field: zeta_{p^i} lies in the field exactly when the
        level-i extension has degree 1.  The profile must extend at least
        one level past the answer; otherwise xi cannot be bounded above.
        """
        xi = 0
        for datum in self.cyclotomic:
            if datum.e * datum.f == 1:
                xi = datum.i
            else:
                return xi
        raise ProfileTooShortError("profile too short to determine xi")

    def level(self, i: int) -> tuple[int, int]:
        """(e_i, f_i) for the level-i cyclotomic extension; level 0 is (1, 1)."""
        if type(i) is not int:  # bool is a subclass of int
            raise DomainError(f"level index must be an integer, got {arith.format_repr(i)}")
        if i < 0:
            raise DomainError("level index must be >= 0")
        if i > len(self.cyclotomic):
            raise ProfileTooShortError(
                f"profile too short: level {arith.format_decimal(i)} required, "
                f"profile has depth {len(self.cyclotomic)}"
            )
        return self._rows[i][1:]


def cyclotomic_profile(p: int, m: int, max_level: int) -> BaseFieldProfile:
    """A new profile of Q_p(zeta_{p^m}) through max_level; m = 0 gives Q_p.

    Q_p(zeta_{p^k})/Q_p is totally ramified of degree phi(p^k) (Serre,
    Local Fields, IV 4), so e0 = phi(p^m), f0 = 1, and level i is trivial
    for i <= m, else of degree p^(i-m), or phi(p^i) if m = 0.  No degree is
    found by division, so a p that is not prime, 1 included, is refused
    when the profile is built; an argument that is not an int, bools
    included, is refused before.
    """
    if type(p) is not int or type(m) is not int or type(max_level) is not int:  # bool too
        got = arith.format_repr((p, m, max_level))
        raise DomainError(f"cyclotomic_profile takes integers, got (p, m, max_level) = {got}")
    if m < 0:
        raise DomainError("m must be >= 0")
    if max_level < 0:
        raise DomainError("max_level must be >= 0")
    data = tuple(
        CyclotomicDatum(i, 1 if i <= m else p ** (i - m) if m else p ** (i - 1) * (p - 1), 1)
        for i in range(1, max_level + 1)
    )
    return BaseFieldProfile(p, p ** (m - 1) * (p - 1) if m else 1, 1, data)


def qp_profile(p: int, max_level: int) -> BaseFieldProfile:
    """Profile of Q_p through max_level: cyclotomic_profile(p, 0, max_level)."""
    return cyclotomic_profile(p, 0, max_level)


def unramified_profile(K: BaseFieldProfile, g: int) -> BaseFieldProfile:
    """K_g, unramified of degree g over K: (p, e0, f0*g), level i (i, e_i,
    f_i / gcd(f_i, g)), since K_g(zeta_{p^i}) is K(zeta_{p^i})K_g.  A g that
    is not an int, bools included, or is below 1 raises DomainError."""
    if type(g) is not int or g < 1:  # bool is a subclass of int
        arith.require_counts("unramified_profile", "g", g)
    levels = (CyclotomicDatum(i, e, f // math.gcd(f, g)) for i, e, f in K.cyclotomic)
    return BaseFieldProfile(K.p, K.e0, K.f0 * g, levels)


def validate(profile: BaseFieldProfile) -> list[str]:
    """All invariant violations found in the profile; empty list means ok.

    BaseFieldProfile's constructor calls this and refuses any profile it
    faults, so on a profile that exists it returns [].
    """
    problems = []
    if not arith.is_prime(profile.p):
        problems.append(f"p = {arith.format_decimal(profile.p)} is not prime")
    if profile.e0 < 1:
        problems.append(f"e0 = {arith.format_decimal(profile.e0)} must be >= 1")
    if profile.f0 < 1:
        problems.append(f"f0 = {arith.format_decimal(profile.f0)} must be >= 1")

    p, e0 = profile.p, profile.e0
    # both tower rules bound level i by phi(p^i) = p^(i-1)*(p - 1); they read
    # residues and valuations, never p^(i-1) itself, so no level costs more
    s0 = r0 = None
    if p >= 2 and e0 >= 1:
        s0, r0 = arith.p_valuation(e0, p).s, e0 % (p - 1)
    # the last valid level j, which the next level is checked against;
    # j = 0 stands for K itself
    j, prev_e, prev_f = 0, 1, 1
    for pos, datum in enumerate(profile.cyclotomic, start=1):
        if datum.i != pos:
            found = arith.format_decimal(datum.i)
            problems.append(
                f"levels must be consecutive from 1: found level {found} at position {pos}"
            )
            continue
        if datum.e < 1 or datum.f < 1:
            problems.append(f"level {datum.i}: e and f must be >= 1")
            continue
        # datum.i is pos from here on, a position, so only e and f can be long
        if datum.e % prev_e:
            prev, e = arith.format_decimal(prev_e), arith.format_decimal(datum.e)
            problems.append(f"level {datum.i}: e_{j} = {prev} does not divide e_{datum.i} = {e}")
        if datum.f % prev_f:
            prev, f = arith.format_decimal(prev_f), arith.format_decimal(datum.f)
            problems.append(f"level {datum.i}: f_{j} = {prev} does not divide f_{datum.i} = {f}")
        degree = datum.e * datum.f
        if p >= 2 and pow(p, datum.i - 1, degree) * (p - 1) % degree:
            problems.append(
                f"level {datum.i}: e_{datum.i}*f_{datum.i} does not divide |(Z/p^{datum.i})^*|"
            )
        # Gal(K(zeta_{p^i})/K(zeta_{p^j})) embeds in the order-p^(i-j) kernel of
        # (Z/p^i)^* -> (Z/p^j)^*, so each step past level 1 has degree 1 or p;
        # with no valid level j >= 1, phi(p^i) above already bounds level i
        if j >= 1 and pow(p, datum.i - j, degree) * prev_e * prev_f % degree:
            power = "p" if datum.i - j == 1 else f"p^{datum.i - j}"
            problems.append(
                f"level {datum.i}: e_{datum.i}*f_{datum.i} does not divide "
                f"{power}*e_{j}*f_{j}"
            )
        # Q_p(zeta_{p^i}) lies in K(zeta_{p^i}), and ramification indices multiply
        if s0 is not None and (
            s0 + arith.p_valuation(datum.e, p).s < datum.i - 1 or r0 * datum.e % (p - 1)
        ):
            problems.append(f"level {datum.i}: phi(p^{datum.i}) does not divide e0*e_{datum.i}")
        j, prev_e, prev_f = datum.i, datum.e, datum.f
    return problems


def _values(record, keys, optional=()) -> list:
    """record[key] for each key, of any type; a key outside keys and optional is refused."""
    if not isinstance(record, dict):
        raise DomainError(f"malformed profile: expected a JSON object, got {type(record).__name__}")
    for key in record:
        if key not in keys and key not in optional:
            raise DomainError(f"malformed profile: unknown key {key!r}")
    return [record[key] for key in keys]


def load_profile(source) -> BaseFieldProfile:
    """Build a profile from a JSON file path or an already-parsed dict.

    The file holds a single object {"p", "e0", "f0", "cyclotomic":
    [{"i", "e", "f"}, ...]} with levels consecutive from 1; any other key,
    and a cyclotomic that is not an array, is refused.  Every number must
    be a JSON integer: the constructor refuses floats, strings and
    booleans, never coerces them.  Building the profile validates it; any
    violation raises DomainError.
    """
    if isinstance(source, (str, os.PathLike)):
        import json  # imported only when needed: it slows every start-up

        with open(source, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, deep nesting
                raise DomainError(f"malformed profile JSON: {exc}") from exc
    else:
        raw = source
    try:
        p, e0, f0 = _values(raw, ("p", "e0", "f0"), ("cyclotomic",))
        tower = raw.get("cyclotomic", [])
        if not isinstance(tower, list):  # "{}" or "" is no empty tower
            got = type(tower).__name__
            raise DomainError(f"malformed profile: cyclotomic must be a JSON array, got {got}")
        levels = (CyclotomicDatum(*_values(d, ("i", "e", "f"))) for d in tower)
        return BaseFieldProfile(p, e0, f0, levels)  # a malformed level raises as it is read
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed profile: {exc}") from exc
