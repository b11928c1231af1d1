"""The benchmark's traced gates, checked in tier-1: a degree table, one
small op of each kind the hard workload runs, and a small-grid selfcheck
call every function that bench/run.py requires of that workload, and
selfcheck calls every suite in bench/run.py's SUITES through the module
binding the tracer wraps.  A
loop that stops reaching one of them, or a suite table bound at import
time, fails here and not only under `bench/run.py --trace 1`.  Every
layer in bench/tracer.py's LAYERS resolves on the package in a worker
that has imported only padicount.cli, as the tracer reads it there, and
every function and suite that BENCHMARK.json's per_layer metrics name
still exists under that name."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from padicount import selfcheck
from padicount.cli import main

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "bench" / "run.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACER_PY = ROOT / "bench" / "tracer.py"


def _declared(name: str, path: Path = RUN_PY):
    """The literal that the bench script at path binds to `name`, read
    without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} declares no {name}")


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


def test_every_per_layer_metric_names_a_function_or_suite_that_exists():
    # bench/run.py --trace 1 refuses a per_layer metric it did not measure, and
    # the tracer measures only public functions of padicount.<layer>, labelled
    # <layer>.<qualname>, and suites bound as selfcheck.<suite>_suite
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    functions, suites = [], []
    for metric in spec["per_layer"]:
        layer, *path, stat = metric["name"].split(".")
        if not path:
            continue  # a layer's totals, or the tracer's own overhead
        if (layer, stat) == ("selfcheck", "s"):
            suites.append(metric["name"])
            (suite,) = path
            assert inspect.isfunction(
                getattr(selfcheck, suite.replace("-", "_") + "_suite", None)
            ), metric["name"]
            continue
        functions.append(metric["name"])
        assert stat in ("calls", "self_s", "max_bits", "true_ratio"), metric["name"]
        owner = importlib.import_module(f"padicount.{layer}")
        for part in path:
            owner = getattr(owner, part, None)
        assert inspect.isfunction(owner), metric["name"]
        assert owner.__module__ == f"padicount.{layer}", metric["name"]
        assert owner.__qualname__ == ".".join(path), metric["name"]
        assert not any(part.startswith("_") for part in path), metric["name"]
    assert functions and suites


# what a traced worker does: import padicount.cli only, then read each layer
# off the package; -S keeps site-packages from importing anything first
RESOLVE_LAYERS = """
import sys
import padicount.cli
import padicount
for layer in sys.argv[1:]:
    print(getattr(padicount, layer).__name__)
try:
    padicount.no_such_name
except AttributeError:
    print("AttributeError")
"""


def test_every_traced_layer_resolves_after_importing_only_the_cli():
    layers = _declared("LAYERS", TRACER_PY)
    assert {"oracles", "selfcheck"} <= set(layers)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-c", RESOLVE_LAYERS, *layers],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout.splitlines() == [f"padicount.{layer}" for layer in layers] + [
        "AttributeError"
    ], run.stdout + run.stderr
