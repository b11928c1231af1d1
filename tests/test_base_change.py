"""Unramified base change checks the paper's f bookkeeping: the f_i, the
f1/f2 splits and n0.

K_g, the unramified extension of K of degree g, has the profile
(p, e0, f0*g) with levels (i, e_i, f_i / gcd(f_i, g)): K_g(zeta_{p^i}) is
the compositum of K(zeta_{p^i}) and K_g, so its inertia over K is
lcm(f_i, g) and its ramification is unchanged.  Every extension of K with
inertia f contains K_f, so its class is an orbit of Gal(K_f/K) on the
totally ramified classes over K_f, and Burnside's lemma gives

    f * I(K, e, f) = sum over g | f of phi(f/g) * I(K_g, e, 1),

while the Krasner count N(K, e, f) = N(K_f, e, 1).  A degree-l extension,
l prime, is either cyclic and alone in its class, or has l conjugates, so
I(K, l, 1) = C(K, l, 1) + (N(K, l, 1) - C(K, l, 1)) / l, from the Krasner
and cyclic counts alone.

These identities do not check the totally ramified column itself.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_memo import valid_profiles

from padicount.arith import divisor_pairs, divisors, euler_phi, is_prime, p_valuation
from padicount.counting import cyclic_count_ef, krasner_count
from padicount.profiles import BaseFieldProfile, CyclotomicDatum, load_profile, qp_profile
from padicount.theorems import iso_count_ef

DATA = Path(__file__).resolve().parent / "data"
TOP = 24  # every cell with e*f <= TOP


def unramified(K, g):
    """K_g, built through the constructor, so it is validated like any profile."""
    levels = tuple(CyclotomicDatum(d.i, d.e, d.f // math.gcd(d.f, g)) for d in K.cyclotomic)
    return BaseFieldProfile(K.p, K.e0, K.f0 * g, levels)


def check_base_change(K, top=TOP):
    """Check every identity on K for e*f <= top, wherever K is deep enough;
    return the numbers of base-change cells and prime degrees checked."""
    bases = {g: unramified(K, g) for g in range(1, top + 1)}
    cells = [
        (e, f)
        for n in range(1, top + 1)
        for e, f in divisor_pairs(n)
        if p_valuation(e, K.p).s <= K.depth
    ]
    for e, f in cells:
        classes = sum(euler_phi(f // g) * iso_count_ef(bases[g], e, 1) for g in divisors(f))
        assert f * iso_count_ef(K, e, f) == classes, (K, e, f)
        assert krasner_count(K, e, f) == krasner_count(bases[f], e, 1), (K, e, f)
    degrees = []
    if any(d.e * d.f > 1 for d in K.cyclotomic):  # else xi, and so C, is undetermined
        degrees = [
            ell for ell in range(2, top + 1) if is_prime(ell) and p_valuation(ell, K.p).s <= K.depth
        ]
    for ell in degrees:
        krasner, cyclic = krasner_count(K, ell, 1), cyclic_count_ef(K, ell, 1)
        conjugates, rem = divmod(krasner - cyclic, ell)
        assert rem == 0, (K, ell)
        assert iso_count_ef(K, ell, 1) == cyclic + conjugates, (K, ell)
    return len(cells), len(degrees)


def test_unramified_keeps_ramification_and_divides_out_the_inertia():
    K = load_profile(DATA / "ramified_quadratic_q3.json")
    assert unramified(K, 1) == K
    assert unramified(K, 2) == BaseFieldProfile(
        3, 2, 2, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 3, 1))
    )
    assert unramified(K, 3) == BaseFieldProfile(
        3, 2, 3, (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 3, 2))
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_base_change_over_qp(p):
    assert check_base_change(qp_profile(p, 4)) == (84, 9)


@pytest.mark.parametrize("name, checked", [
    ("ramified_quadratic_q3.json", (84, 9)),
    ("unramified_quadratic_q2.json", (83, 9)),  # depth 3: no cell with e = 16
])
def test_base_change_over_the_data_profiles(name, checked):
    assert check_base_change(load_profile(DATA / name)) == checked


@settings(max_examples=60, deadline=None, derandomize=True)
@given(K=valid_profiles())
def test_base_change_over_valid_profiles(K):
    check_base_change(K)
