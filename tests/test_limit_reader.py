"""The magnitude limit has one reader: counting.magnitude_bits is the only
code in the package that touches the environment, so every evaluator takes
the limit from its caller or from that one function."""

import pytest
from test_checked_division import SOURCES, uses_of

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
