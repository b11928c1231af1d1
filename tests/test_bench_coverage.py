"""The benchmark's traced gates, checked in tier-1: a degree table calls
every function that bench/run.py requires of its table workload, and
selfcheck calls every suite in bench/run.py's SUITES through the module
binding the tracer wraps.  A loop that stops reaching one of them, or a
suite table bound at import time, fails here and not only under
`bench/run.py --trace 1`."""

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


def test_a_degree_table_calls_every_function_the_table_workload_requires(capsys, monkeypatch):
    names = _exercised("table")
    calls = dict.fromkeys(names, 0)
    for name in names:
        module, attr = name.split(".")
        module = importlib.import_module(f"padicount.{module}")

        def counted(*args, real=getattr(module, attr), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    assert main("table --qp 2 --n-max 30".split()) == 0
    capsys.readouterr()
    assert [name for name, count in calls.items() if count == 0] == []


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
