"""The benchmark's traced gate, checked in tier-1: a degree table calls
every function that bench/run.py requires of its table workload, so a
loop that stops reaching one of them fails here and not only under
`bench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

from padicount.cli import main

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _exercised(workload: str) -> tuple[str, ...]:
    """EXERCISED[workload] as bench/run.py declares it, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "EXERCISED" for target in node.targets
        ):
            return ast.literal_eval(node.value)[workload]
    raise AssertionError(f"{RUN_PY} declares no EXERCISED")


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
