"""The benchmark's traced gates, checked in tier-1: a degree table, one
small op of each kind the hard workload runs, and a small-grid selfcheck
call every function that bench/run.py requires of that workload, and
selfcheck calls every suite in bench/run.py's SUITES through the module
binding the tracer wraps.  A
loop that stops reaching one of them, or a suite table bound at import
time, fails here and not only under `bench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

from padicount import selfcheck
from padicount.cli import main

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _declared(name: str):
    """The literal that bench/run.py binds to `name`, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} declares no {name}")


def _exercised(workload: str) -> tuple[str, ...]:
    return _declared("EXERCISED")[workload]


def _uncalled(monkeypatch, capsys, workload: str, commands) -> list[str]:
    """The functions that bench/run.py requires of workload and that none of
    the CLI commands calls, each counted through its module binding, or its
    class's for a method such as oracles.AbelianGroup.order_histogram."""
    names = _exercised(workload)
    calls = dict.fromkeys(names, 0)
    for name in names:
        module, *path, attr = name.split(".")
        owner = importlib.import_module(f"padicount.{module}")
        for part in path:
            owner = getattr(owner, part)

        def counted(*args, real=getattr(owner, attr), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for command in commands:
        assert main(command.split()) == 0, command
    capsys.readouterr()
    return [name for name, count in calls.items() if count == 0]


def test_a_degree_table_calls_every_function_the_table_workload_requires(capsys, monkeypatch):
    assert _uncalled(monkeypatch, capsys, "table", ["table --qp 2 --n-max 30"]) == []


def test_one_small_op_of_each_hard_kind_calls_every_function_the_hard_workload_requires(
    capsys, monkeypatch
):
    # the kinds of bench/workloads.py's hard workload, with small parameters
    commands = [
        "count cyclic-ef --qp 2 --e 1009 --f 1",
        "count iso-ef --qp 3 --e 1009 --f 1",
        "count tame --qp 3 --e 2 --f 1000",
        "count krasner --qp 1000003 --e 2 --f 1",
        "count cyclic-total --qp 2 --d 1000003",
    ]
    assert _uncalled(monkeypatch, capsys, "hard", commands) == []


def test_a_small_grid_selfcheck_calls_every_function_the_selfcheck_workload_requires(
    capsys, monkeypatch
):
    assert _uncalled(monkeypatch, capsys, "selfcheck", ["selfcheck --grid small"]) == []


def test_run_selfcheck_calls_each_suite_the_tracer_times(monkeypatch):
    # The tracer times a suite through the module binding selfcheck.<name>_suite,
    # so run_selfcheck must look each one up there when it runs.
    suites = _declared("SUITES")
    called = []
    for suite in suites:
        attr = suite.replace("-", "_") + "_suite"

        def counted(*args, real=getattr(selfcheck, attr), suite=suite, **kwargs):
            called.append(suite)
            return real(*args, **kwargs)

        monkeypatch.setattr(selfcheck, attr, counted)

    results = selfcheck.run_selfcheck(grid="small")
    assert called == list(suites)
    assert tuple(r.name for r in results) == suites
