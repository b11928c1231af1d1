"""The package imports nothing outside the standard library, and the tests
import nothing that the `test` extra does not name."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "padicount").glob("*.py"))
TEST_SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench" / "tests").glob("*.py")])
# modules the tests import from their own directories
LOCAL = {path.stem for path in [*(ROOT / "bench").glob("*.py"), *TEST_SOURCES]}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(
        name
        for name in _absolute_imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    )
    assert foreign == [], f"{path.name} imports {foreign}"


def test_the_guard_sees_every_module():
    assert {path.name for path in SOURCES} >= {"__init__.py", "arith.py", "cli.py"}


def _test_extra():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    # a requirement's name ends at its first version, extra or marker character
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}


def test_test_imports_are_named_in_the_test_extra():
    extra = _test_extra()
    missing = sorted({
        f"{path.relative_to(ROOT)}: {top}"
        for path in TEST_SOURCES
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (top := name.partition(".")[0]) not in sys.stdlib_module_names
        and top != "padicount"
        and top not in LOCAL
        and top.lower() not in extra
    })
    assert missing == [], f"imports not named in the test extra: {missing}"
    assert {"tests/test_memo.py", "bench/tests/test_bench.py"} <= {
        str(path.relative_to(ROOT)) for path in TEST_SOURCES
    }
