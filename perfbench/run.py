"""perfbench: host-time benchmark of the MEMO reproduction's planner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search|paper \\
        --seed N --seconds S --trace 0|1

Two seeded, closed-loop, single-client workloads (see ``README.md``); the
risk queries (``estimate --jitter/--failures``) and the fleet reruns
(``plan-fleet``) run as sessions inside ``paper``.  Each query is one call
into a public entry point of the ``repro`` package, made in a fresh child
process (``child.py``), and its answer is checked against the stored table
``answers.json``; a query that raises or answers differently is a failed
operation.

``--trace 0`` times whole blocks of queries until the run has lasted
``--seconds`` and reports the end-to-end metrics, each time scaled to the
reference machine by the calibration probes timed around it (``scaled``).
``--trace 1`` runs one fixed block three times -- once untraced, twice with
``tracer.py`` installed -- and reports per-layer self times, call counts
and exact counts, after checking that both traced passes counted the same.
The last line of standard output is the JSON result; the line before it
records the run's environment, sample counts and unscaled times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

import child  # noqa: E402  (the benchmark's own modules, next to this file)
import tracer  # noqa: E402
import workloads  # noqa: E402

#: A run stops starting new blocks after this long, to exit within 180 s.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0
#: Fixed hash seed of every child process.
CHILD_HASH_SEED = "0"
#: The calibration probe's time in a child process on the reference machine
#: (the 2-core development VM in its fast state); reported times are scaled
#: to it, so they read as that machine's wall time.
REFERENCE_PROBE_S = 0.012
#: A time is scaled by the median of the probes that ran within this many
#: seconds of it (always the two right before and after it).
PROBE_WINDOW_S = 0.25

END_TO_END = (("queries_per_s", "1/s"), ("query_p50_s", "s"), ("query_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SessionError(RuntimeError):
    """A child process crashed, timed out or wrote no result."""


def child_env(home: str) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": CHILD_HASH_SEED,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # The default fleet cache lives under ~/.cache; a private HOME keeps
        # a user's cache out of every run even if a path were left implicit.
        "HOME": home,
    })
    return env


class Runner:
    """Spawns sessions in a private run directory and checks their answers."""

    def __init__(self, run_dir: str, answers: dict, deadline: float) -> None:
        self.run_dir = run_dir
        self.answers = answers
        self.deadline = deadline
        home = os.path.join(run_dir, "home")
        os.makedirs(home)
        self.env = child_env(home)
        self.workers = max(1, min(workloads.FLEET_WORKERS, os.cpu_count() or 1))
        self.sessions = 0
        self.errors: list = []

    def session(self, session: dict, **extra) -> dict:
        """Run one session in a fresh child; returns its result with the
        parent's spawn and exit clock readings added."""
        self.sessions += 1
        job = dict(session, workers=self.workers, **extra)
        job_path = os.path.join(self.run_dir, f"job-{self.sessions}.json")
        result_path = os.path.join(self.run_dir, f"result-{self.sessions}.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter()))
        parent_probe = child.timed_probe()
        spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            raise SessionError(f"session {self.sessions} timed out after {timeout:.0f}s")
        finally:
            _kill_group(proc)
        exit_clock = time.perf_counter()
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise SessionError(f"session {self.sessions} exited {proc.returncode}: "
                               + " | ".join(tail))
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result.update(spawn=spawn, exit=exit_clock)
        result["probes"].insert(0, parent_probe)
        return result

    def check(self, query: dict, result: dict) -> bool:
        """Whether one query ran and matched every stored answer row."""
        if result["error"] is not None:
            self.errors.append(result["error"].strip().splitlines()[-1])
            return False
        keys = workloads.answer_keys(query)
        expected = [self.answers.get(key) for key in keys]
        if result["answers"] != expected:
            self.errors.append(f"answer mismatch for {keys}")
            return False
        return True


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the child and anything it started (fleet workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def warm_up(runner: Runner) -> None:
    """An untimed import-only session: compiles bytecode, warms the page cache."""
    runner.session({"queries": [], "imports": "all"})


def tail_percentile(latencies: list) -> tuple:
    """Highest whole nearest-rank percentile with at least ten samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


# ------------------------------------------------------------- timed runs

def scaled(start: float, end: float, probes: list) -> float:
    """The time from ``start`` to ``end`` in reference-machine seconds:
    scaled by the reference probe time over the median time of the
    ``[end clock, seconds]`` probes that overlap the interval widened by
    ``PROBE_WINDOW_S`` on each side."""
    near = [seconds for at, seconds in probes
            if at >= start - PROBE_WINDOW_S and at - seconds <= end + PROBE_WINDOW_S]
    return (end - start) * REFERENCE_PROBE_S / statistics.median(near)


def timed_run(workload: str, seed: int, seconds: float, runner: Runner) -> tuple:
    stream = workloads.blocks(workload, seed)
    latencies, setups, peaks = [], [], []
    raw_latencies, raw_setups = [], []
    attempted = failed = blocks = 0
    started = time.perf_counter()
    while True:
        cache_dir = None
        for session in next(stream):
            if session.get("setup") == "prime":
                # Each block primes its own fleet cache; its reruns load it.
                cache_dir = os.path.join(runner.run_dir, f"fleet-cache-{runner.sessions}")
            result = runner.session(session, cache_dir=cache_dir)
            probes = result["probes"]
            raw_setups.append(result["setup_end"] - result["spawn"])
            setups.append(scaled(result["spawn"], result["setup_end"], probes))
            if not session["queries"]:
                continue
            peaks.append(result["peak_rss_mb"])
            for query, outcome in zip(session["queries"], result["results"]):
                attempted += 1
                failed += not runner.check(query, outcome)
                raw_latencies.append(outcome["latency_s"])
                latencies.append(scaled(outcome["started"],
                                        outcome["started"] + outcome["latency_s"], probes))
        blocks += 1
        now = time.perf_counter()
        if now - started >= seconds:
            break
        if now >= runner.deadline - 30.0:
            runner.errors.append("run budget reached before --seconds had passed")
            break
    tail_p, tail = tail_percentile(latencies)
    metrics = {
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
    }
    unscaled = {
        "queries_per_s": len(raw_latencies) / sum(raw_latencies),
        "query_p50_s": statistics.median(raw_latencies),
        "query_tail_s": sorted(raw_latencies)[math.ceil(tail_p * len(raw_latencies) / 100) - 1],
        "setup_s": statistics.median(raw_setups),
    }
    info = {"queries": len(latencies), "blocks": blocks, "tail_percentile": tail_p,
            "setups": len(setups), "measured_s": time.perf_counter() - started,
            "unscaled": unscaled}
    return metrics, attempted, failed, info


# ------------------------------------------------------------- traced run

def traced_pass(sessions: list, runner: Runner, label: str, trace: bool) -> dict:
    """Run the sessions once; returns the busy time, import times, query
    and failure counts, and (traced) the trace summary."""
    trace_dir = os.path.join(runner.run_dir, f"trace-{label}")
    extra = {}
    if any(session.get("setup") == "prime" for session in sessions):
        extra["cache_dir"] = os.path.join(runner.run_dir, f"fleet-cache-{label}")
    if trace:
        os.makedirs(trace_dir)
        extra["trace_dir"] = trace_dir
    else:
        extra["import_all"] = True
    busy, imports, attempted, failed = 0.0, [], 0, 0
    for session in sessions:
        result = runner.session(session, **extra)
        busy += scaled(result["traced_from"], result["finished"], result["probes"])
        imports.append(result["ready"] - result["spawn"])
        for query, outcome in zip(session["queries"], result["results"]):
            attempted += 1
            failed += not runner.check(query, outcome)
    summary = tracer.summarise(trace_dir) if trace else {}
    return {"busy": busy, "imports": imports, "attempted": attempted, "failed": failed,
            "summary": summary}


#: Exact counts (besides every ``.calls``) that two traced passes must agree on.
COUNT_KEYS = (
    "parallel.strategies_enumerated", "parallel.strategies_evaluated",
    "parallel.strategies_pruned", "mc.replicas", "ttrain.samples", "ttrain.interruptions",
    "cache.loaded_entries",
    "cache.schedules.hits", "cache.schedules.misses", "cache.timelines.hits",
    "cache.timelines.misses", "cache.programs.hits", "cache.programs.misses",
)


def per_layer_metrics(summary: dict, untraced: dict, traced_busy: float) -> dict:
    """Name -> (value, unit) for every per-layer metric of BENCHMARK.json."""
    metrics = {}
    for name in list(tracer.FUNCTIONS) + list(tracer.LOCAL_FUNCTIONS):
        self_name = "fleet.fanout.s" if name == "fleet.plan_fleet" else f"{name}.s"
        metrics[self_name] = (summary[f"{name}.s"], "s")
        metrics[f"{name}.calls"] = (summary[f"{name}.calls"], "count")
    for key in COUNT_KEYS:
        metrics[key] = (summary.get(key, 0), "count")
    for layer in ("schedules", "timelines", "programs"):
        hits = summary.get(f"cache.{layer}.hits", 0)
        lookups = hits + summary.get(f"cache.{layer}.misses", 0)
        metrics[f"cache.{layer}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    evaluated = summary.get("parallel.strategies_evaluated", 0)
    pruned = summary.get("parallel.strategies_pruned", 0)
    metrics["parallel.strategy_prune_ratio"] = (
        pruned / (evaluated + pruned) if evaluated + pruned else 0.0, "ratio")
    mc_s = summary["sim.stochastic.monte_carlo_timeline.inclusive_s"]
    metrics["mc.replicas_per_s"] = (summary.get("mc.replicas", 0) / mc_s if mc_s else 0.0, "1/s")
    metrics["cache.payload_bytes"] = (summary.get("cache.payload_bytes", 0), "bytes")
    metrics["fleet.points.search_s"] = (summary.get("fleet.points.search_s", 0.0), "s")
    metrics["setup.import_s"] = (statistics.median(untraced["imports"]), "s")
    metrics["trace.overhead_ratio"] = (traced_busy / untraced["busy"] - 1.0, "ratio")
    return metrics


def exact_counts(summary: dict) -> dict:
    """The counts two traced passes must agree on.  How often the fleet
    planner's ``wait`` returns depends on completion timing, so its call
    count is reported but not compared."""
    return {key: value for key, value in summary.items()
            if (key.endswith(".calls") and key != "fleet.wait.calls")
            or key in COUNT_KEYS or key == "cache.payload_bytes"}


def trace_run(workload: str, seed: int, runner: Runner) -> tuple:
    sessions = workloads.trace_sessions(workload, seed)
    # The untraced pass runs between the traced ones, so a steady drift of
    # the machine's speed cancels out of the overhead ratio.
    first = traced_pass(sessions, runner, "first", trace=True)
    untraced = traced_pass(sessions, runner, "untraced", trace=False)
    second = traced_pass(sessions, runner, "second", trace=True)
    counts_a, counts_b = exact_counts(first["summary"]), exact_counts(second["summary"])
    differing = sorted(key for key in set(counts_a) | set(counts_b)
                       if counts_a.get(key) != counts_b.get(key))
    if differing:
        runner.errors.append(f"traced passes counted differently: {differing}")
    metrics = per_layer_metrics(first["summary"], untraced, (first["busy"] + second["busy"]) / 2)
    passes = (untraced, first, second)
    info = {"queries_per_pass": untraced["attempted"], "sessions_per_pass": len(sessions),
            "counts_identical": not differing}
    return (metrics, sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes),
            info, not differing)


# ------------------------------------------------------------------ entry

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame) -> None:
    """On SIGTERM, unwind so that the running child's group is killed and
    the run directory removed (the ``finally`` clauses) before exiting."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    begun = time.perf_counter()
    answers_path = os.path.join(HERE, "answers.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    with open(answers_path, encoding="utf-8") as handle:
        answers = json.load(handle)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    runner = Runner(run_dir, answers, deadline=begun + RUN_BUDGET_S)
    try:
        warm_up(runner)
        if args.trace:
            metrics, attempted, failed, info, counts_ok = trace_run(args.workload, args.seed, runner)
        else:
            metrics, attempted, failed, info = timed_run(args.workload, args.seed, args.seconds, runner)
            metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}
            counts_ok = True
    except SessionError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    import numpy

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "fleet_workers": runner.workers,
        "sessions": runner.sessions, "wall_s": time.perf_counter() - begun,
        "errors": runner.errors[:5],
    })
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
