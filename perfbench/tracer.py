"""Span tracer installed from outside the program, for the traced run only.

``install`` imports every ``repro`` module, then replaces each function in
``FUNCTIONS`` with a recording wrapper:

* a module-level function is replaced in every loaded ``repro.*`` namespace
  that holds the same object, so call sites that did ``from x import y``
  are caught too;
* a method is replaced on its class and on every loaded subclass that
  defines its own version.

Each call records a span ``(name, start, end, parent span, query id)``.
Spans and counts stay in memory and are written as one JSON file per
process when the process ends (``finish``; forked fleet workers write theirs
through a multiprocessing finalizer).  Counts come from the wrapped calls'
results and from the fast-path cache counters, so they are exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional

#: Span name -> (module, attribute path).  Names are the per-layer metric
#: prefixes reported by the traced run.
FUNCTIONS: Dict[str, tuple] = {
    "systems.run": ("repro.systems.base", "TrainingSystem.run"),
    "systems.evaluate_strategy": ("repro.systems.base", "TrainingSystem.evaluate_strategy"),
    "systems.stage_execution": ("repro.systems.base", "TrainingSystem.stage_execution"),
    "systems.strategy_lower_bound": ("repro.systems.base", "TrainingSystem.strategy_lower_bound"),
    "parallel.enumerate_strategies": ("repro.parallel.search", "enumerate_strategies"),
    "sim.schedules.build_schedule": ("repro.sim.schedules", "build_schedule"),
    "sim.schedules.validate": ("repro.sim.schedules", "PipelineSchedule.validate"),
    "sim.schedules.max_in_flight": ("repro.sim.schedules", "PipelineSchedule.max_in_flight"),
    "sim.fastpath.evaluate_schedule": ("repro.sim.fastpath", "evaluate_schedule"),
    "sim.fastpath.critical_path_timeline": ("repro.sim.fastpath", "critical_path_timeline"),
    "sim.fastpath.critical_path_timeline_batch": ("repro.sim.fastpath", "critical_path_timeline_batch"),
    "sim.fastpath.compile_schedule_program": ("repro.sim.fastpath", "compile_schedule_program"),
    "sim.costs.stage_cost_profile": ("repro.sim.costs", "CostModel.stage_cost_profile"),
    "sim.pipeline.peak_activation_bytes": ("repro.sim.pipeline", "peak_activation_bytes"),
    "sim.stochastic.monte_carlo_timeline": ("repro.sim.stochastic", "monte_carlo_timeline"),
    "sim.failures.simulate_time_to_train": ("repro.sim.failures", "simulate_time_to_train"),
    "fleet.load_fastpath_caches": ("repro.sim.fastpath", "load_fastpath_caches"),
    "fleet.save_fastpath_caches": ("repro.sim.fastpath", "save_fastpath_caches"),
    "fleet.plan_fleet": ("repro.fleet.planner", "plan_fleet"),
    "core.prepare": ("repro.core.framework", "MemoFramework.prepare"),
    "core.execute": ("repro.core.framework", "MemoFramework.execute"),
    "planner.plan": ("repro.planner.bilevel", "BiLevelPlanner.plan"),
    "swap.build_swap_schedule": ("repro.swap.schedule", "build_swap_schedule"),
}

#: Wrapped in the one namespace only: the planner's ``wait`` is the standard
#: library's, whose other users are no layer of the program.
LOCAL_FUNCTIONS: Dict[str, tuple] = {
    "fleet.wait": ("repro.fleet.planner", "wait"),
}

_names: List[str] = []
_spans: List[Optional[tuple]] = []
_stack: List[int] = []
_query = [-1]
_counts: Dict[str, float] = {}
_cache_baseline: Dict[str, tuple] = {}
_trace_dir = [""]


def _count(name: str, value: float) -> None:
    _counts[name] = _counts.get(name, 0) + value


# Result hooks: turn a wrapped call's arguments and result into counts.

def _on_run(args, kwargs, report) -> None:
    # run(workload, schedule=...) re-enters run() without the override;
    # count the inner call only.
    if (args[1] if len(args) > 1 else kwargs.get("schedule")) is None:
        _count("parallel.strategies_evaluated", report.strategies_evaluated)
        _count("parallel.strategies_pruned", report.strategies_pruned)


def _on_enumerate(args, kwargs, strategies) -> None:
    _count("parallel.strategies_enumerated", len(strategies))


def _on_monte_carlo(args, kwargs, distribution) -> None:
    _count("mc.replicas", len(distribution.samples))


def _on_time_to_train(args, kwargs, distribution) -> None:
    _count("ttrain.samples", len(distribution.samples))
    _count("ttrain.interruptions", sum(distribution.failure_counts))


def _on_load(args, kwargs, entries) -> None:
    _count("cache.loaded_entries", entries)
    path = args[0] if args else kwargs["path"]
    if os.path.exists(path):
        _count("cache.payload_bytes", os.path.getsize(path))


def _on_plan_fleet(args, kwargs, report) -> None:
    _count("fleet.points.search_s", sum(outcome.duration_s for outcome in report.outcomes))


HOOKS: Dict[str, Callable] = {
    "systems.run": _on_run,
    "parallel.enumerate_strategies": _on_enumerate,
    "sim.stochastic.monte_carlo_timeline": _on_monte_carlo,
    "sim.failures.simulate_time_to_train": _on_time_to_train,
    "fleet.load_fastpath_caches": _on_load,
    "fleet.plan_fleet": _on_plan_fleet,
}


def _wrap(name: str, func: Callable) -> Callable:
    name_id = len(_names)
    _names.append(name)
    hook = HOOKS.get(name)
    is_method = "." in _target(name)[1]
    clock = time.perf_counter

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = len(_spans)
        parent = _stack[-1] if _stack else -1
        _spans.append(None)
        _stack.append(index)
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            end = clock()
            _stack.pop()
            _spans[index] = (name_id, start, end, parent, _query[0])
        if hook is not None:
            hook(args[1:] if is_method else args, kwargs, result)
        return result

    return traced


def _target(name: str) -> tuple:
    return FUNCTIONS.get(name) or LOCAL_FUNCTIONS[name]


def _repro_modules() -> List[object]:
    return [module for key, module in list(sys.modules.items())
            if module is not None and (key == "repro" or key.startswith("repro."))]


def import_all() -> None:
    """Import every ``repro`` module, so each namespace exists to be wrapped."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _wrap_method(name: str, module: object, path: str) -> None:
    class_name, method = path.split(".")
    base = getattr(module, class_name)
    classes = {base}
    for loaded in _repro_modules():
        for value in list(vars(loaded).values()):
            if isinstance(value, type) and issubclass(value, base):
                classes.add(value)
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if method in vars(cls) and not getattr(vars(cls)[method], "__isabstractmethod__", False):
            setattr(cls, method, _wrap(name, vars(cls)[method]))


def _wrap_function(name: str, module: object, attribute: str) -> None:
    original = getattr(module, attribute)
    wrapped = _wrap(name, original)
    for loaded in _repro_modules():
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def _cache_info() -> Dict[str, tuple]:
    from repro.sim.fastpath import fastpath_cache_info

    return {layer: (info.hits, info.misses) for layer, info in fastpath_cache_info().items()}


def install(trace_dir: str) -> None:
    """Wrap every traced function; spans are written under ``trace_dir``."""
    import_all()
    _trace_dir[0] = trace_dir
    for name, (module_name, path) in FUNCTIONS.items():
        module = importlib.import_module(module_name)
        if "." in path:
            _wrap_method(name, module, path)
        else:
            _wrap_function(name, module, path)
    for name, (module_name, attribute) in LOCAL_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        setattr(module, attribute, _wrap(name, getattr(module, attribute)))
    _cache_baseline.update(_cache_info())
    from multiprocessing import util

    util.register_after_fork(_FORK_ANCHOR, _after_fork)


class _Anchor:
    """A long-lived object multiprocessing's after-fork registry can hold."""


_FORK_ANCHOR = _Anchor()


def _after_fork(_anchor: _Anchor) -> None:
    """A forked worker starts its own trace and writes it when it exits.

    Runs from multiprocessing's after-fork hooks, after the worker has
    cleared the finalizers it inherited, so the finalizer below survives.
    """
    from multiprocessing import util

    _spans.clear()
    _stack.clear()
    _counts.clear()
    _query[0] = -1
    _cache_baseline.clear()
    _cache_baseline.update(_cache_info())
    util.Finalize(None, finish, exitpriority=100)


def set_query(query_id: int) -> None:
    _query[0] = query_id


def finish() -> None:
    """Write this process's spans and counts (once per process)."""
    counts = dict(_counts)
    for layer, (hits, misses) in _cache_info().items():
        base_hits, base_misses = _cache_baseline.get(layer, (0, 0))
        counts[f"cache.{layer}.hits"] = hits - base_hits
        counts[f"cache.{layer}.misses"] = misses - base_misses
    path = os.path.join(_trace_dir[0], f"trace-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": _names, "spans": _spans, "counts": counts}, handle)


def summarise(trace_dir: str) -> Dict[str, float]:
    """Per-name self time and calls, plus counts, over every process file.

    A span's self time is its duration minus the durations of its direct
    child spans.
    """
    self_s: Dict[str, float] = {}
    inclusive_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.startswith("trace-"):
            continue
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
            data = json.load(handle)
        names = data["names"]
        spans = data["spans"]
        child_s = [0.0] * len(spans)
        # A span still open when its process wrote the file (a worker
        # forked mid-call) is null and counts for nothing.
        for span in spans:
            if span is not None and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        for index, span in enumerate(spans):
            if span is None:
                continue
            name_id, start, end = span[:3]
            name = names[name_id]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[index]
            inclusive_s[name] = inclusive_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
    summary: Dict[str, float] = dict(counts)
    for name in list(FUNCTIONS) + list(LOCAL_FUNCTIONS):
        summary[f"{name}.s"] = self_s.get(name, 0.0)
        summary[f"{name}.inclusive_s"] = inclusive_s.get(name, 0.0)
        summary[f"{name}.calls"] = calls.get(name, 0)
    return summary
