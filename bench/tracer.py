"""Outside-in tracer: wraps padicount's public functions where they are bound.

A module that did `from .profiles import qp_profile` holds its own
reference to the function, so patching `padicount.profiles` alone would
miss those calls.  The tracer therefore replaces every binding of a
traced function, in every module of the package, with one shared
wrapper, and wraps the public methods of the classes the layers define.
Generator functions are left alone: their work runs while the caller
iterates, outside any span the wrapper could open.

Each wrapper opens a span on a stack.  A span's self time is its
duration minus the durations of the wrapped calls made inside it, so
time is charged to the innermost traced function that spent it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("arith", "profiles", "counting", "theorems", "oracles", "selfcheck", "cli")


@dataclass
class FuncStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    max_bits: int = 0
    true_results: int = 0


class Tracer:
    """Aggregates calls, errors and self time per traced function.

    `clock` returns integer nanoseconds; tests pass a scripted one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, FuncStats] = defaultdict(FuncStats)
        self.suite_ns: dict[str, int] = defaultdict(int)
        self.module_errors: dict[str, int] = defaultdict(int)
        self._last_error: dict[str, BaseException] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, func, label: str, module: str):
        """A wrapper that records a span for every call of func as `label`."""
        stats = self.stats[label]
        stack = self._stack
        clock = self.clock
        observe = _OBSERVERS.get(label)
        if observe is None and module == "selfcheck" and label.endswith("_suite"):
            observe = _observe_suite

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if self._last_error.get(module) is not exc:
                    self._last_error[module] = exc
                    self.module_errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, stats, result, elapsed)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every binding of a public padicount function or method."""
        modules = [package] + [getattr(package, name) for name in LAYERS]
        wrappers = {}
        classes = set()
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = _layer_of(obj)
                    if layer is None or inspect.isgeneratorfunction(obj):
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                    self._patch(module, name, wrappers[obj])
                elif inspect.isclass(obj) and _layer_of(obj) is not None and obj not in classes:
                    classes.add(obj)
                    self._wrap_methods(obj, _layer_of(obj))

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            self._patch(cls, name, self.wrap(obj, f"{layer}.{obj.__qualname__}", layer))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """The figures recorded so far, as JSON-ready data."""
        return {
            "stats": {label: asdict(st) for label, st in self.stats.items()},
            "suite_ns": dict(self.suite_ns),
            "module_errors": dict(self.module_errors),
        }

    def absorb(self, snapshot: dict) -> None:
        """Add the figures of another tracer's snapshot to this one's."""
        for label, figures in snapshot["stats"].items():
            st = self.stats[label]
            st.calls += figures["calls"]
            st.total_ns += figures["total_ns"]
            st.self_ns += figures["self_ns"]
            st.max_bits = max(st.max_bits, figures["max_bits"])
            st.true_results += figures["true_results"]
        for suite, ns in snapshot["suite_ns"].items():
            self.suite_ns[suite] += ns
        for module, count in snapshot["module_errors"].items():
            self.module_errors[module] += count


def _layer_of(obj):
    module = getattr(obj, "__module__", "") or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == "padicount" and layer in LAYERS else None


def _observe_bits(tracer, stats, result, elapsed):
    stats.max_bits = max(stats.max_bits, result.bit_length())


def _observe_truth(tracer, stats, result, elapsed):
    stats.true_results += bool(result)


def _observe_suite(tracer, stats, result, elapsed):
    tracer.suite_ns[result.name] += elapsed


_OBSERVERS = {
    "counting.guarded_power": _observe_bits,
    "arith.divides_p_power_minus_one": _observe_truth,
}
