"""The magnitude limit has one reader: counting.magnitude_bits is the only
code in the package that touches the environment, so every evaluator takes
the limit from its caller or from that one function.  A limit given as an
argument is refused where it enters unless it is an int >= 1."""

import inspect

import pytest
from test_checked_division import SOURCES, uses_of

from padicount import counting, selfcheck, theorems
from padicount.errors import DomainError
from padicount.profiles import qp_profile

ENVIRONMENT = {"environ", "environb", "getenv"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_environment_is_read_only_inside_magnitude_bits(path):
    stray = [
        f"{path.name}:{line}"
        for function, line in uses_of(path, ENVIRONMENT)
        if function != "counting.magnitude_bits"
    ]
    assert stray == [], f"environment read outside counting.magnitude_bits at {stray}"


def test_the_guard_sees_the_one_reader():
    uses = [use for path in SOURCES for use in uses_of(path, ENVIRONMENT)]
    assert [function for function, _ in uses] == ["counting.magnitude_bits"]


Q2 = qp_profile(2, 2)

# every public function that takes bits -> (the function whose refusal it
# raises, arguments); most of these answer without a power, so a check
# where the limit is used would never see it
TAKE_BITS = {
    "counting.limit_bits": ("count", ("count",)),
    "counting.sigma_krasner": ("sigma_krasner", (2, 4, 1)),
    "counting.krasner_count": ("krasner_count", (Q2, 2, 1)),
    "counting.pi_count": ("pi_count", (2, 1, 0, 0)),  # s = 0: 1
    "counting.delta_count": ("delta_count", (2, 1, 1, 2)),  # i > s: 0
    "counting.cyclic_count_ef": ("cyclic_count_ef", (Q2, 3, 1)),  # 3 does not divide 2 - 1: 0
    "counting.cyclic_count_total": ("cyclic_count_total", (Q2, 1)),
    "theorems.iso_count_ef": ("iso_count_ef", (Q2, 1, 1)),
    "theorems.iso_count_ef_terms": ("iso_count_ef", (Q2, 1, 1)),
    "theorems.iso_count_total": ("iso_count_total", (Q2, 1)),
    "theorems.iso_count_total_terms": ("iso_count_total", (Q2, 1)),
    "selfcheck.run_selfcheck": ("run_selfcheck", ("small",)),
    # a suite passes bits to the counts it checks, and the first refuses it
    "selfcheck.pi_oracle_suite": ("pi_count", (True,)),
    "selfcheck.delta_telescoping_suite": ("delta_count", ()),
    "selfcheck.dual_oracle_suite": ("cyclic_count_ef", (True,)),
    "selfcheck.cyclic_decomposition_suite": ("cyclic_count_ef", (True,)),
    "selfcheck.remark_equivalence_suite": ("iso_count_ef", (True,)),
    "selfcheck.theorem_consistency_suite": ("iso_count_total", (True,)),
    "selfcheck.sandwich_suite": ("iso_count_ef", (True,)),
    "selfcheck.golden_suite": ("krasner_count", ()),
}


def test_every_public_function_that_takes_bits_is_listed():
    found = {
        f"{module.__name__.removeprefix('padicount.')}.{name}"
        for module in (counting, theorems, selfcheck)
        for name, function in vars(module).items()
        if inspect.isfunction(function) and function.__module__ == module.__name__
        and not name.startswith("_") and "bits" in inspect.signature(function).parameters
    }
    # guarded_power takes its limit only from a count that has checked it
    assert found == set(TAKE_BITS) | {"counting.guarded_power"}


@pytest.mark.parametrize("bits, refusal", [
    ("64", "bits must be an integer, got '64'"),
    (True, "bits must be an integer, got True"),
    (64.5, "bits must be an integer, got 64.5"),
    (0, "bits must be >= 1"),
    (-1, "bits must be >= 1"),
])
@pytest.mark.parametrize("name", TAKE_BITS)
def test_a_limit_that_is_not_an_int_of_at_least_one_is_refused_where_it_enters(name, bits, refusal):
    # "64" and 64.5 once reached guarded_power, which raised a bare TypeError
    # or used 64.5; True was read as 1, and 0 was refused as a magnitude
    module, attr = name.split(".")
    where, args = TAKE_BITS[name]
    function = getattr({"counting": counting, "theorems": theorems, "selfcheck": selfcheck}[module], attr)
    with pytest.raises(DomainError) as refused:
        function(*args, bits=bits)
    assert str(refused.value) == f"{where}: {refusal}"
