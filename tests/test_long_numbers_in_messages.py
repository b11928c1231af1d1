"""Every message writes its ints through arith.format_decimal, so a number
past str()'s default limit of 4300 digits is named in full inside the
package's own error instead of escaping as a bare ValueError."""

from collections import namedtuple

import pytest
from test_cli import _int_str_digits

from padicount import arith, oracles
from padicount.counting import sigma_krasner
from padicount.errors import DomainError, MagnitudeError, ProfileTooShortError
from padicount.profiles import BaseFieldProfile, qp_profile
from padicount.theorems import MAX_SUMMANDS, iso_count_ef, tame_iso_count

BIG = 10**5000


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BaseFieldProfile(2 * BIG, 1, 1), DomainError,
         lambda: f"invalid profile: p = {2 * BIG} is not prime"),
        (lambda: qp_profile(2, 1).level(BIG), ProfileTooShortError,
         lambda: f"profile too short: level {BIG} required, profile has depth 1"),
        (lambda: sigma_krasner(2, BIG + 1, 1), DomainError,
         lambda: f"sigma_krasner: p^s = 2 must divide N = {BIG + 1}"),
        (lambda: tame_iso_count(qp_profile(3, 0), 3 * BIG, 1), DomainError,
         lambda: f"tame_iso_count requires p not dividing e; 3 | {3 * BIG}"),
        # 1441 * 70 summands at level 0; e has 4317 digits
        (lambda: iso_count_ef(qp_profile(3, 0), 997**1440, 2**69), MagnitudeError,
         lambda: f"iso_count_ef(e={997**1440}, f={2**69}): 100870 summands, "
         f"more than {MAX_SUMMANDS}"),
    ],
    ids=["profile-p", "level", "sigma-krasner", "tame", "iso-ef-summands"],
)
def test_a_refusal_names_a_number_past_the_int_string_limit_in_full(call, error, message):
    with pytest.raises(error) as refused:
        call()
    with _int_str_digits(0):
        assert str(refused.value) == message()


Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize(
    "value",
    [7, True, "x", 1.5, (), (3,), (3, "x"), [1, (2, [3])], Pair(1, (2,)), (Pair(4, 5),), None],
)
def test_format_repr_is_repr_for_a_value_within_the_int_string_limit(value):
    assert arith.format_repr(value) == repr(value)


@pytest.mark.parametrize(
    "value",
    [BIG, (BIG,), (1, BIG), [BIG, "x"], Pair(BIG, (BIG, [2])), (Pair(1, BIG),)],
    ids=["int", "1-tuple", "tuple", "list", "namedtuple", "nested"],
)
def test_format_repr_writes_an_int_past_the_limit_where_repr_would(value):
    written = arith.format_repr(value)
    with _int_str_digits(0):
        assert written == repr(value)


def test_a_group_refusal_names_its_factors_in_full():
    with pytest.raises(DomainError) as refused:
        oracles.AbelianGroup((BIG, 0))
    with pytest.raises(MagnitudeError) as capped:
        oracles.AbelianGroup((BIG,))
    with _int_str_digits(0):
        assert str(refused.value) == f"group constructor arguments must be >= 1, got ({BIG}, 0)"
        assert str(capped.value) == f"group order {BIG} exceeds cap {oracles.MAX_ABELIAN_ORDER}"


def test_a_profile_with_a_long_field_has_a_repr():
    written = repr(BaseFieldProfile(2, BIG, 1))
    with _int_str_digits(0):
        assert written == f"BaseFieldProfile(p=2, e0={BIG}, f0=1, cyclotomic=())"

