"""Rebuild the stored answer table ``perfbench/answers.json``.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_answers.py

Runs every pool query once, in this one process, and writes each answer row
(strategy, schedule kind, hex-float iteration time and, for risk queries,
the scored statistic) under its key.  The benchmark checks every query it
times against this table, so run it only when the program's answers are
meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads  # noqa: E402

ANSWERS_PATH = os.path.join(HERE, "answers.json")


def main() -> None:
    warnings.simplefilter("ignore")
    answers = {}
    started = time.perf_counter()
    queries = workloads.all_answer_queries()
    for index, query in enumerate(queries):
        for key, row in zip(workloads.answer_keys(query), child.execute_query(query)):
            answers[key] = row
            # A risk query checks its scored statistic only when the winner
            # runs a pipeline schedule; the pool must keep that true.
            if query["kind"] == "risk" and row["statistic"] is None:
                raise SystemExit(f"perfbench: risk query {key} has no pipelined winner")
        if index % 50 == 49:
            print(f"{index + 1}/{len(queries)} queries, {time.perf_counter() - started:.0f}s",
                  file=sys.stderr)
    with open(ANSWERS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(f"{json.dumps(key)}: {json.dumps(answers[key], sort_keys=True)}"
                                for key in sorted(answers)))
        handle.write("\n}\n")
    print(f"wrote {len(answers)} answers to {ANSWERS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
