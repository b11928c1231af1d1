"""The package imports nothing outside the standard library, and the tests
import nothing that the `test` extra does not name.  The package also keeps
off the standard modules that slow every start-up: dataclasses, typing and
inspect.  The command line takes the oracles and the selfcheck defaults
through run_selfcheck alone."""

import ast
import os
import re
import subprocess
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


SLOW_TO_IMPORT = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_imports_no_module_that_slows_start_up(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    slow = sorted(name for name in _absolute_imports(tree) if name.partition(".")[0] in SLOW_TO_IMPORT)
    assert slow == [], f"{path.name} imports {slow}"


# -S skips site-packages, whose .pth files may import typing on their own
COUNT_THEN_LIST_MODULES = f"""
import sys
from padicount.cli import main
status = main(["count", "krasner", "--qp", "11", "--e", "1", "--f", "1"])
print(status, *sorted(name for name in {SLOW_TO_IMPORT!r} if name in sys.modules))
"""


def test_a_count_in_a_fresh_interpreter_loads_no_module_that_slows_start_up():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-c", COUNT_THEN_LIST_MODULES],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout.splitlines() == ["1", "0"], run.stdout + run.stderr


def _package_names(tree):
    """Every name a module imports from padicount, dotted from the package:
    'oracles', 'selfcheck.run_selfcheck', 'arith'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [f"{base}.{alias.name}" if base else alias.name for alias in node.names]
            if node.level:
                names = [f"padicount.{name}" for name in names]
        else:
            continue
        yield from (name.removeprefix("padicount.") for name in names if name.startswith("padicount."))


def test_cli_imports_no_oracle_and_no_selfcheck_default():
    # the caps' defaults live in run_selfcheck; the CLI passes a cap only when it is given
    source = (ROOT / "src" / "padicount" / "cli.py").read_text(encoding="utf-8")
    names = list(_package_names(ast.parse(source)))
    assert "selfcheck.run_selfcheck" in names and "errors.DomainError" in names
    refused = [
        name for name in names
        if name.startswith(("oracles", "selfcheck")) and name != "selfcheck.run_selfcheck"
    ]
    assert refused == [], f"cli.py imports {refused}"


def test_the_package_import_reader_sees_each_form():
    tree = ast.parse(
        "import padicount.oracles\nfrom padicount import oracles\nfrom . import selfcheck\n"
        "from .selfcheck import DEFAULT_MAX_ABELIAN_ORDER\nfrom padicount.oracles import cyclic\nimport os\n"
    )
    assert list(_package_names(tree)) == [
        "oracles", "oracles", "selfcheck", "selfcheck.DEFAULT_MAX_ABELIAN_ORDER", "oracles.cyclic",
    ]


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
