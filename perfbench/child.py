"""One benchmark session in a fresh process: import, set up, run queries.

Usage: ``python3 perfbench/child.py JOB.json RESULT.json``.  The job names
the session's set-up, its queries and, for fleet queries, the cache
directory; the result holds clock readings (``time.perf_counter``, which is
system-wide on Linux, so the parent can subtract its own spawn time), each
query's start, latency and answer rows, the calibration probes (end clock
and time of one after set-up and one after each query, see
``calibration_probe``) and the session's peak RSS.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

#: Modules a session imports before it reports ready, by query kind.
IMPORTS = {
    "search": ("repro.systems.megatron", "repro.systems.memo"),
    "fleet": ("repro.fleet",),
    "prime": ("repro.fleet",),
    "risk": ("repro.systems.megatron", "repro.sim.failures", "repro.sim.stochastic"),
    "table3": ("repro.systems.deepspeed", "repro.systems.megatron", "repro.systems.memo"),
    "table4": ("repro.systems.memo", "repro.experiments.table4"),
    "table5": ("repro.systems.memo", "repro.experiments.table4", "repro.experiments.table5"),
    "plan": ("repro.core.framework",),
}


#: Iterations of the calibration loop: about 12 ms in a child process on the
#: development machine in its fast state.
CALIBRATION_LOOPS = 60000


def calibration_probe() -> float:
    """Wall time of a fixed pure-Python loop, the benchmark's own code.

    The host's speed changes by up to 2x within seconds, so the runner
    scales each latency by the probe times measured around it in the same
    process.  The loop allocates nothing and runs with the collector off, so
    a query's leftover heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    table = [0.0] * 64
    acc = 0
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        key = (i * 2654435761) % 1009
        table[key & 63] += key * 0.5
        acc ^= key
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def timed_probe() -> list:
    """``[end clock, seconds]`` of one calibration probe."""
    seconds = calibration_probe()
    return [time.perf_counter(), seconds]


def report_answer(report, statistic=None) -> dict:
    """The stored-answer row of one ``TrainingReport``."""
    return {
        "feasible": report.feasible,
        "failure_reason": report.failure_reason,
        "strategy": report.parallel.describe() if report.parallel is not None else None,
        "schedule_kind": report.schedule_kind.value if report.schedule_kind is not None else None,
        "iteration_time_s": float.hex(report.iteration_time_s),
        "statistic": float.hex(statistic) if statistic is not None else None,
    }


def _workload(model, gpus, seqlen_k, batch=None):
    from repro.config import tokens
    from repro.systems.base import Workload

    if batch is None:
        return Workload(model, tokens(seqlen_k), gpus)
    return Workload(model, tokens(seqlen_k), gpus, global_batch_samples=batch)


def _search(query):
    from repro.systems.megatron import MegatronSystem
    from repro.systems.memo import MemoSystem

    system = {"megatron": MegatronSystem, "memo": MemoSystem}[query["system"]]
    workload = _workload(query["model"], query["gpus"], query["seqlen_k"], query["batch"])
    return [report_answer(system(pipeline_schedule="auto").run(workload))]


def _fleet(query, cache_dir, workers):
    from repro.config import tokens
    from repro.fleet import SearchSettings, WorkloadGrid, WorkloadPoint, plan_fleet

    points = tuple(WorkloadPoint(model, tokens(k), gpus, batch)
                   for model, gpus, k, batch in query["points"])
    report = plan_fleet(WorkloadGrid(points, SearchSettings()), workers=workers,
                        cache_dir=cache_dir)
    report.to_json()  # part of the query: what `repro plan-fleet` prints
    return [report_answer(outcome.report) if outcome.ok else {"error": outcome.error}
            for outcome in report.outcomes]


def _risk(query):
    from repro.sim.failures import ttrain_objective_base
    from repro.sim.stochastic import objective_score
    from repro.systems.megatron import MegatronSystem

    workload = _workload(*query["job"])
    if query["mode"] == "jitter":
        system = MegatronSystem(
            pipeline_schedule="auto", jitter=workloads.RISK_JITTER,
            risk_objective=query["objective"], monte_carlo_replicas=query["replicas"],
            monte_carlo_seed=query["seed"],
        )
        report = system.run(workload)
        distribution = report.makespan_distribution
        statistic = (objective_score(distribution, query["objective"])
                     if distribution is not None else None)
    else:
        system = MegatronSystem(
            pipeline_schedule="auto", failures=workloads.RISK_FAILURES,
            risk_objective=query["objective"], target_iterations=query["target_iterations"],
            monte_carlo_seed=query["seed"],
        )
        report = system.run(workload)
        ttd = report.time_to_train
        statistic = (ttd.statistic(ttrain_objective_base(query["objective"]))
                     if ttd is not None else None)
    return [report_answer(report, statistic)]


def _table3(query):
    from repro.systems.deepspeed import DeepSpeedSystem
    from repro.systems.megatron import MegatronSystem
    from repro.systems.memo import MemoSystem

    system = {"DS": DeepSpeedSystem, "Mega": MegatronSystem, "Memo": MemoSystem}[query["system"]]
    return [report_answer(system().run(_workload(query["model"], query["gpus"], query["seqlen_k"])))]


def _table4(query):
    from repro.experiments.table4 import TABLE4_SEQUENCE_LENGTHS_K, ablation_parallel_config
    from repro.systems.memo import MemoSystem, MemoVariant

    system = MemoSystem(variant=MemoVariant(query["variant"]),
                        fixed_parallel=ablation_parallel_config())
    return [report_answer(system.run(_workload("7B", 8, k)))
            for k in TABLE4_SEQUENCE_LENGTHS_K]


def _table5(query):
    from repro.experiments.table4 import ablation_parallel_config
    from repro.experiments.table5 import TABLE5_ALPHAS
    from repro.systems.memo import MemoSystem, MemoVariant

    workload = _workload("7B", 8, query["seqlen_k"])
    return [report_answer(MemoSystem(variant=MemoVariant.FULL, fixed_alpha=alpha,
                                     fixed_parallel=ablation_parallel_config()).run(workload))
            for alpha in TABLE5_ALPHAS]


def _plan(query):
    from repro.config import tokens
    from repro.core.framework import MemoFramework

    framework = MemoFramework.for_workload(
        query["model"], tokens(query["seqlen_k"]), query["gpus"],
        tensor_parallel=query["tp"], context_parallel=query["cp"], use_exact_planner=False,
    )
    plan = framework.prepare()
    result = framework.execute(plan)
    return [{"alpha": float.hex(plan.schedule.alpha),
             "iteration_time_s": float.hex(result.iteration_time_s)}]


def execute_query(query, cache_dir=None, workers=1):
    """Run one query; returns its answer rows (see ``workloads.answer_keys``)."""
    kind = query["kind"]
    if kind == "fleet":
        return _fleet(query, cache_dir, workers)
    return {"search": _search, "risk": _risk, "table3": _table3, "table4": _table4,
            "table5": _table5, "plan": _plan}[kind](query)


def prime_fleet_cache(cache_dir):
    """Cold serial ``plan_fleet`` over the whole fleet pool into ``cache_dir``."""
    _fleet({"points": workloads.fleet_pool_points()}, cache_dir, workers=1)


def set_up_risk():
    """The deterministic search of every risk job, as a user's first estimate."""
    from repro.systems.megatron import MegatronSystem

    for model, gpus, k, batch, _target in workloads.RISK_JOBS:
        MegatronSystem(pipeline_schedule="auto").run(_workload(model, gpus, k, batch))


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    kinds = {query["kind"] for query in job["queries"]}
    if job.get("setup"):
        kinds.add(job["setup"])
    if job.get("imports") == "all":
        kinds.update(IMPORTS)
    for kind in sorted(kinds):
        for module in IMPORTS[kind]:
            __import__(module)
    ready = time.perf_counter()

    warnings.simplefilter("ignore")
    tracer = None
    if job.get("trace_dir"):
        import tracer

        tracer.install(job["trace_dir"])
    elif job.get("import_all"):
        # The untraced pass of a traced run imports what install() imports,
        # so both passes time the same work.
        import tracer as reference

        reference.import_all()
    traced_from = time.perf_counter()
    if job.get("setup") == "prime":
        prime_fleet_cache(job["cache_dir"])
    elif job.get("setup") == "risk":
        set_up_risk()
    setup_end = time.perf_counter()

    probes = [timed_probe()]
    results = []
    for query_id, query in enumerate(job["queries"]):
        if tracer is not None:
            tracer.set_query(query_id)
        started = time.perf_counter()
        try:
            answers, error = execute_query(query, job.get("cache_dir"), job.get("workers", 1)), None
        except Exception:
            answers, error = None, traceback.format_exc(limit=8)
        results.append({"started": started, "latency_s": time.perf_counter() - started,
                        "answers": answers, "error": error})
        probes.append(timed_probe())
    finished = time.perf_counter()

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.finish()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"ready": ready, "traced_from": traced_from, "setup_end": setup_end,
                   "finished": finished, "results": results, "probes": probes,
                   "peak_rss_mb": peak_kb / 1024.0}, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
