"""The package imports nothing outside the standard library, and the tests
import nothing that the `test` extra does not name.  The package also keeps
off the standard modules that slow every start-up: dataclasses, typing and
inspect.  The command line takes the oracles and the selfcheck defaults
through run_selfcheck alone, and loads them only for selfcheck: in a fresh
interpreter, count and table leave padicount.oracles, padicount.selfcheck
and json unloaded, and json loads only for JSON output or a profile file."""

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


LOADED_ON_FIRST_USE = ("json", "padicount.oracles", "padicount.selfcheck")
# -S skips site-packages, whose .pth files may import typing on their own.
# Runs the command in argv, then prints its exit status and which of the
# modules above are loaded.
RUN_THEN_LIST_MODULES = f"""
import sys
from padicount.cli import main
status = main(sys.argv[1:])
watched = {SLOW_TO_IMPORT + LOADED_ON_FIRST_USE!r}
print(status, *sorted(name for name in watched if name in sys.modules))
"""


def _run_fresh(command: str) -> list[str]:
    """The stdout lines of command run in a fresh interpreter, the last one
    listing the exit status and the watched modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-c", RUN_THEN_LIST_MODULES, *command.split()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return run.stdout.splitlines()


def test_a_count_in_a_fresh_interpreter_loads_no_module_that_slows_start_up():
    assert _run_fresh("count krasner --qp 11 --e 1 --f 1") == ["1", "0"]


@pytest.mark.parametrize("command, loaded", [
    ("table --qp 2 --n-max 6", []),
    ("count krasner --qp 11 --e 1 --f 1 --json", ["json"]),
    ("count krasner --profile tests/data/shallow_q2.json --e 1 --f 1", ["json"]),
    ("selfcheck --grid small", ["padicount.oracles", "padicount.selfcheck"]),
])
def test_json_and_the_oracle_layers_load_only_for_the_commands_that_use_them(command, loaded):
    assert _run_fresh(command)[-1].split() == ["0", *loaded]


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
    # the CLI loads the oracle layer only through run_selfcheck, when selfcheck runs
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
