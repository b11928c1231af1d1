"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "padicount").glob("*.py"))


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
