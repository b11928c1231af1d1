import copy
import json
import pickle
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_memo import valid_profiles

from padicount import profiles, selfcheck
from padicount.arith import divisor_pairs
from padicount.counting import cyclic_count_ef, cyclic_count_total
from padicount.errors import DomainError, ProfileTooShortError
from padicount.profiles import (
    BaseFieldProfile,
    CyclotomicDatum,
    load_profile,
    qp_profile,
    validate,
)
from padicount.theorems import iso_count_total


def test_qp_profile_q3():
    prof = qp_profile(3, 2)
    assert (prof.p, prof.e0, prof.f0, prof.n0) == (3, 1, 1, 1)
    assert prof.cyclotomic == (CyclotomicDatum(1, 2, 1), CyclotomicDatum(2, 6, 1))


def test_qp_profile_q2():
    prof = qp_profile(2, 2)
    # zeta_2 = -1 already lies in Q_2, so level 1 is trivial
    assert prof.cyclotomic == (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 2, 1))


def test_qp_profile_depth_zero():
    prof = qp_profile(7, 0)
    assert prof.cyclotomic == ()
    assert (prof.e0, prof.f0) == (1, 1)


def test_qp_profile_rejects_composite():
    with pytest.raises(DomainError):
        qp_profile(6, 1)


@pytest.mark.parametrize(
    "args", [(2.0, 1), (2, 1.0), (True, 1), (3, True), (2, False), ("2", 1), (2, None)]
)
def test_qp_profile_refuses_arguments_that_are_not_integers(args):
    with pytest.raises(DomainError, match="integers"):
        qp_profile(*args)


def test_level_lookup():
    prof = qp_profile(3, 2)
    assert prof.level(0) == (1, 1)
    assert prof.level(1) == (2, 1)
    assert prof.level(2) == (6, 1)
    with pytest.raises(ProfileTooShortError):
        prof.level(3)


def test_xi_examples():
    assert qp_profile(2, 2).xi == 1
    assert qp_profile(3, 1).xi == 0
    custom = BaseFieldProfile(
        2, 2, 1,
        (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 1, 1), CyclotomicDatum(3, 2, 1)),
    )
    assert custom.xi == 2


def test_xi_needs_one_level_past_answer():
    with pytest.raises(ProfileTooShortError):
        qp_profile(2, 1).xi  # level 1 trivial, nothing after it
    with pytest.raises(ProfileTooShortError):
        qp_profile(3, 0).xi


def test_xi_qp_families():
    for L in range(2, 6):
        assert qp_profile(2, L).xi == 1
    for p in (3, 5, 7, 11):
        for L in range(1, 4):
            assert qp_profile(p, L).xi == 0


def test_validate_accepts_qp_profiles():
    for p in (2, 3, 5, 7):
        for L in range(0, 4):
            assert validate(qp_profile(p, L)) == []


# validate() runs when a profile is built, so its findings surface as the
# constructor's DomainError


def test_validate_reports_broken_divisibility_chain():
    with pytest.raises(DomainError, match="invalid profile: .*e_1 = 3"):
        BaseFieldProfile(5, 1, 1, (CyclotomicDatum(1, 3, 1), CyclotomicDatum(2, 4, 1)))


def test_validate_reports_unit_group_overflow():
    with pytest.raises(DomainError, match="invalid profile: .*does not divide"):
        BaseFieldProfile(3, 1, 1, (CyclotomicDatum(1, 5, 1),))


def test_validate_reports_bad_prime_and_level_gaps():
    with pytest.raises(DomainError, match="invalid profile: ") as caught:
        BaseFieldProfile(4, 1, 1, (CyclotomicDatum(2, 1, 1),))
    assert "not prime" in str(caught.value)
    assert "consecutive" in str(caught.value)


def test_validate_refuses_a_tower_no_field_has():
    # phi(p^i) | e0*e_i: Q_p(zeta_{p^i}) lies in K(zeta_{p^i}), and
    # ramification indices multiply
    refused = [
        (3, 1, ((1, 1), (3, 1)), "phi(p^1) does not divide e0*e_1"),  # zeta_3 in Q_3
        (5, 2, ((1, 1), (5, 1)), "phi(p^1) does not divide e0*e_1"),  # 4 does not divide 2
        (2, 1, ((1, 1), (1, 1), (2, 1)), "phi(p^2) does not divide e0*e_2"),  # i in Q_2
    ]
    for p, e0, tower, message in refused:
        levels = tuple(CyclotomicDatum(i, e, f) for i, (e, f) in enumerate(tower, 1))
        with pytest.raises(DomainError, match=re.escape(message)):
            BaseFieldProfile(p, e0, 1, levels)
        BaseFieldProfile(p, e0 * p * (p - 1), 1, levels)  # enough ramification in the base


def test_each_step_past_level_one_has_degree_one_or_p():
    # [K(zeta_9):K(zeta_3)] divides 3, so Q_3(zeta_3) has level 2 of degree 3, not 6
    old = (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 6, 1))
    with pytest.raises(DomainError) as refused:
        BaseFieldProfile(3, 2, 1, old)
    assert str(refused.value) == "invalid profile: level 2: e_2*f_2 does not divide p*e_1*f_1"
    K = BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 3, 1)))
    assert K in selfcheck._cyclic_profiles()
    # the step rule reads the degree e*f, so an unramified step of degree p passes
    BaseFieldProfile(3, 2, 1, (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 3, 2)))
    BaseFieldProfile(3, 6, 1, (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 1, 3)))


def test_the_cyclic_suites_read_q3_sqrt3_with_its_true_tower():
    # the only ramified quadratic K over Q_3 without zeta_3 is Q_3(sqrt 3), where
    # K(zeta_3) = K(sqrt -1) is unramified over K
    data = Path(__file__).resolve().parent / "data" / "ramified_quadratic_q3.json"
    K = load_profile(data)
    assert (K.p, K.e0, K.f0, K.xi) == (3, 2, 1, 0)
    assert [L for L in selfcheck._cyclic_profiles() if (L.p, L.e0, L.xi) == (3, 2, 0)] == [K]


def test_a_level_below_one_is_reported_once_and_later_levels_read_the_last_good_one():
    # level 2 would also break the f chain (2 does not divide -1), and level 3
    # passes every rule against level 1 but not the e chain against level 2
    tower = (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 3, -1), CyclotomicDatum(3, 1, 2))
    field = SimpleNamespace(p=3, e0=18, f0=1, cyclotomic=tower)
    assert validate(field) == ["level 2: e and f must be >= 1"]
    zero = (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 0, 0), CyclotomicDatum(3, 1, 2))
    with pytest.raises(DomainError) as refused:
        BaseFieldProfile(3, 18, 1, zero)
    assert str(refused.value) == "invalid profile: level 2: e and f must be >= 1"


def test_a_level_after_a_gap_names_the_level_it_is_checked_against():
    # level 3 is read against level 1, the last good one, so f_1 = 2, not f_2
    tower = (CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 3, -1), CyclotomicDatum(3, 3, 3))
    with pytest.raises(DomainError) as refused:
        BaseFieldProfile(3, 18, 1, tower)
    assert str(refused.value) == (
        "invalid profile: level 2: e and f must be >= 1; level 3: f_1 = 2 does not divide f_3 = 3"
    )
    # across the gap the step rule is e_3*f_3 | p^2*e_1*f_1 = 9, though phi(3^3) = 18
    for e_3, step in ((9, []), (18, ["level 3: e_3*f_3 does not divide p^2*e_1*f_1"])):
        tower = (CyclotomicDatum(1, 1, 1), CyclotomicDatum(2, 0, 1), CyclotomicDatum(3, e_3, 1))
        field = SimpleNamespace(p=3, e0=2, f0=1, cyclotomic=tower)
        assert validate(field) == ["level 2: e and f must be >= 1", *step]


def test_the_step_rule_needs_a_valid_level_to_step_from():
    # no level >= 1 is valid before level 2, and phi(3^2) = 6 already bounds it
    tower = (CyclotomicDatum(1, 0, 1), CyclotomicDatum(2, 6, 1))
    with pytest.raises(DomainError) as refused:
        BaseFieldProfile(3, 1, 1, tower)
    assert str(refused.value) == "invalid profile: level 1: e and f must be >= 1"


def test_a_deep_tower_validates_without_forming_p_to_each_level():
    # forming p^(i-1) at each level once made a 4000-level tower take 4 s
    p = 100_000_000_003
    depth = 4000
    levels = tuple(CyclotomicDatum(i, 1, 1) for i in range(1, depth + 1))
    e0 = (p - 1) * p ** (depth - 1)
    start = time.perf_counter()
    BaseFieldProfile(p, e0, 1, levels)
    assert time.perf_counter() - start < 2.0


def test_a_refused_deep_tower_names_ten_violations_of_each_kind():
    # every trivial level over p = 100000000003 with e0 = 1 breaks phi(p^i) | e0*e_i;
    # listing all 4000 once made a 200 KB message
    p = 100_000_000_003
    levels = tuple(CyclotomicDatum(i, 1, 1) for i in range(1, 4001))
    with pytest.raises(DomainError) as caught:
        BaseFieldProfile(p, 1, 1, levels)
    message = str(caught.value)
    assert len(message) < 2048
    assert "level 1:" in message
    assert "level 10:" in message and "level 11:" not in message
    assert message.endswith("; and 3990 more")
    assert len(validate(SimpleNamespace(p=p, e0=1, f0=1, cyclotomic=levels))) == 4000


def test_divisibility_monotone_on_valid_profiles():
    for p in (2, 3, 5):
        prof = qp_profile(p, 4)
        degrees = [1] + [d.e * d.f for d in prof.cyclotomic]
        for a, b in zip(degrees, degrees[1:]):
            assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(K=valid_profiles(), d=st.integers(1, 12))
def test_xi_and_the_cyclic_counts_on_any_valid_profile(K, d):
    trivial = [datum.i for datum in K.cyclotomic if datum.e * datum.f == 1]
    if len(trivial) == K.depth:  # no nontrivial level bounds xi
        counts = (lambda: K.xi, lambda: cyclic_count_total(K, d), lambda: cyclic_count_ef(K, d, 1))
        for count in counts:
            with pytest.raises(ProfileTooShortError):
                count()
        return
    assert K.xi == max(trivial, default=0)
    if K.p == 2:  # level 1 of a valid 2-adic tower is trivial: -1 lies in K
        assert K.xi >= 1
    cells = sum(cyclic_count_ef(K, e, f) for e, f in divisor_pairs(d))
    assert cyclic_count_total(K, d) == cells


def test_cyclic_inputs_of_qp():
    # the cyclic counts read (p, n0, f0, xi) straight off the profile
    for K, want in ((qp_profile(2, 2), (2, 1, 1, 1)), (qp_profile(3, 1), (3, 1, 1, 0))):
        assert (K.p, K.n0, K.f0, K.xi) == want


def test_load_profile_roundtrip(tmp_path):
    data = {
        "p": 3,
        "e0": 2,
        "f0": 1,
        "cyclotomic": [{"i": 1, "e": 1, "f": 2}, {"i": 2, "e": 3, "f": 2}],
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    prof = load_profile(path)
    assert prof.p == 3
    assert prof.n0 == 2
    assert prof.level(2) == (3, 2)


def test_load_profile_rejects_invalid(tmp_path):
    data = {"p": 3, "e0": 1, "f0": 1, "cyclotomic": [{"i": 1, "e": 5, "f": 1}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DomainError):
        load_profile(path)


def test_load_profile_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"p": 3, "cyclotomic": []}), encoding="utf-8")
    with pytest.raises(DomainError):
        load_profile(path)


def test_load_profile_rejects_broken_json(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"p": 3,', encoding="utf-8")
    with pytest.raises(DomainError, match="malformed profile JSON"):
        load_profile(path)


@pytest.mark.parametrize(
    "field, value",
    [("p", 3.9), ("p", "3"), ("e0", 1.5), ("f0", True), ("e0", False), ("f0", None)],
)
def test_load_profile_refuses_to_coerce_top_level_fields(field, value):
    data = {"p": 3, "e0": 1, "f0": 1, "cyclotomic": []}
    data[field] = value
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        load_profile(data)


@pytest.mark.parametrize("field, value", [("i", 1.0), ("e", True), ("f", "1")])
def test_load_profile_refuses_to_coerce_level_fields(field, value):
    level = {"i": 1, "e": 2, "f": 1}
    level[field] = value
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        load_profile({"p": 3, "e0": 1, "f0": 1, "cyclotomic": [level]})


@pytest.mark.parametrize("args, refusal", [
    ((3, True, 1), "e0 must be an integer, got True"),
    ((3, 1.5, 1), "e0 must be an integer, got 1.5"),
    ((3.0, 1, 1), "p must be an integer, got 3.0"),
    (("3", 1, 1), "p must be an integer, got '3'"),
    ((3, 1, 1, ((1, 2, 1),)), "level 1 is a tuple, not a CyclotomicDatum"),
    ((3, 1, 1, [CyclotomicDatum(1, 2, 1), {"i": 2, "e": 6, "f": 1}]), "level 2 is a dict, not a CyclotomicDatum"),
    ((3, 1, 1, [CyclotomicDatum(1, 2.0, 1)]), "level 1: e must be an integer, got 2.0"),
    ((3, 1, 1, [CyclotomicDatum(True, 2, 1)]), "level 1: i must be an integer, got True"),
])
def test_the_constructor_refuses_fields_that_are_not_integers(args, refusal):
    with pytest.raises(DomainError) as refused:
        BaseFieldProfile(*args)
    assert str(refused.value) == f"invalid profile: {refusal}"


BAD_VALUES = (3.9, 2.0, "3", True, False, None, [3])


@pytest.mark.parametrize("field", ["p", "e0", "f0", "i", "e", "f"])
@pytest.mark.parametrize("value", BAD_VALUES)
def test_a_file_and_the_constructor_refuse_a_bad_field_in_the_same_words(field, value):
    # one check of the types, in the constructor: a file reaches it through load_profile
    top, level = {"p": 3, "e0": 1, "f0": 1}, {"i": 1, "e": 2, "f": 1}
    (top if field in top else level)[field] = value
    with pytest.raises(DomainError) as from_file:
        load_profile({**top, "cyclotomic": [level]})
    with pytest.raises(DomainError) as by_hand:
        BaseFieldProfile(top["p"], top["e0"], top["f0"], [CyclotomicDatum(**level)])
    name = field if field in top else f"level 1: {field}"
    assert str(from_file.value) == str(by_hand.value) == (
        f"invalid profile: {name} must be an integer, got {value!r}"
    )


@pytest.mark.parametrize("call, message", [
    (lambda: qp_profile(3, 2).level(-1), "level index must be >= 0"),
    (lambda: qp_profile(3, 1).level(1.5), "level index must be an integer, got 1.5"),
    (lambda: qp_profile(3, 1).level("1"), "level index must be an integer, got '1'"),
    (lambda: qp_profile(3, 1).level(True), "level index must be an integer, got True"),
    (lambda: BaseFieldProfile(3, 1, 1, 5), "invalid profile: cyclotomic is not iterable, got 5"),
    (lambda: qp_profile(2, -1), "max_level must be >= 0"),
    # each level fits its unit group, phi(7^i) | e0*e_i and 1*7 | 7*1*2, but 2 does not divide 7
    (lambda: BaseFieldProfile(7, 42, 1, [CyclotomicDatum(1, 1, 2), CyclotomicDatum(2, 1, 7)]),
     "invalid profile: level 2: f_1 = 2 does not divide f_2 = 7"),
])
def test_profiles_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("top, level, key", [
    ({"cyclotomics": [{"i": 1, "e": 2, "f": 1}]}, {}, "cyclotomics"),  # not a depth-0 tower
    ({"E0": 1}, {}, "E0"),
    ({}, {"g": 1}, "g"),
    ({}, {"F": 1}, "F"),  # named even though f is then missing too
])
def test_load_profile_refuses_unknown_keys(top, level, key):
    data = {"p": 3, "e0": 1, "f0": 1, "cyclotomic": [{"i": 1, "e": 2, "f": 1, **level}], **top}
    if "F" in level:
        del data["cyclotomic"][0]["f"]
    with pytest.raises(DomainError, match=f"malformed profile: unknown key '{key}'$"):
        load_profile(data)


@pytest.mark.parametrize("level", ["ief", [1, 2, 1], 7, None])
def test_load_profile_refuses_a_profile_or_level_that_is_not_an_object(level):
    with pytest.raises(DomainError, match="malformed profile: expected a JSON object, got "):
        load_profile({"p": 3, "e0": 1, "f0": 1, "cyclotomic": [level]})
    with pytest.raises(DomainError, match="malformed profile: expected a JSON object, got "):
        load_profile([level])  # a path is a str, so the profile itself is a list


def test_a_type_error_inside_the_levels_is_not_read_as_a_tower_that_is_not_iterable():
    def levels():
        yield CyclotomicDatum(1, 2, 1)
        raise TypeError("raised by a level")

    with pytest.raises(TypeError, match="raised by a level"):
        BaseFieldProfile(3, 1, 1, levels())
    with pytest.raises(DomainError) as refused:
        load_profile({"p": 3, "e0": 1, "f0": 1, "cyclotomic": 5})
    assert str(refused.value) == "malformed profile: cyclotomic must be a JSON array, got int"


@pytest.mark.parametrize("tower, got", [({}, "dict"), ("", "str"), (None, "NoneType"),
                                        ({"i": 1, "e": 2, "f": 1}, "dict")])
def test_a_cyclotomic_that_is_not_an_array_is_not_read_as_an_empty_tower(tmp_path, tower, got):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"p": 3, "e0": 1, "f0": 1, "cyclotomic": tower}), encoding="utf-8")
    with pytest.raises(DomainError) as refused:
        load_profile(path)
    assert str(refused.value) == f"malformed profile: cyclotomic must be a JSON array, got {got}"


def test_a_profile_cannot_be_changed():
    K = qp_profile(3, 2)
    for name in ("p", "cyclotomic", "_memo", "_bound", "extra"):
        with pytest.raises(AttributeError):
            setattr(K, name, 5)
        with pytest.raises(AttributeError):
            delattr(K, name)
    assert (K.p, K.cyclotomic) == (3, qp_profile(3, 2).cyclotomic)


def test_a_profile_is_not_its_tuple_and_keeps_its_repr():
    K = qp_profile(3, 2)
    assert K != (K.p, K.e0, K.f0, K.cyclotomic)
    assert (K.p, K.e0, K.f0, K.cyclotomic) != K
    # recorded from the dataclass that BaseFieldProfile replaced
    assert repr(K) == (
        "BaseFieldProfile(p=3, e0=1, f0=1, cyclotomic=(CyclotomicDatum(i=1, e=2, f=1), "
        "CyclotomicDatum(i=2, e=6, f=1)))"
    )


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda K: pickle.loads(pickle.dumps(K))])
def test_a_copied_profile_is_equal_with_an_empty_memo(duplicate):
    K = qp_profile(3, 2)
    count = iso_count_total(K, 9)
    twin = duplicate(K)
    assert K._memo and not twin._memo
    assert K._bound and not twin._bound
    assert twin is not K and twin == K and hash(twin) == hash(K)
    assert iso_count_total(twin, 9) == count


def test_profiles_module_reexports():
    assert profiles.qp_profile is qp_profile
