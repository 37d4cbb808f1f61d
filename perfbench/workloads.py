"""Workload pools and the seeded query streams drawn from them.

A query is a plain JSON-able dict naming one call into a public entry point
of the ``repro`` package; ``answer_keys`` maps it to the rows of the stored
answer table (``answers.json``) its result is checked against.

Every workload is a stream of *blocks*.  A block is a list of *sessions*; a
session is one fresh child process that optionally sets up (``setup``) and
then runs its queries in order.  The runner starts whole blocks until the
run has lasted ``--seconds`` (one block, at the benchmark's settings), so
each block is built to contain the same mix of query costs whatever the
seed: the seed only decides which pool entries fill each slot and in what
order the sessions run.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List

# ------------------------------------------------------------------- search

SEARCH_SYSTEMS = ("megatron", "memo")
SEARCH_CLUSTERS = (("7B", 8), ("7B", 16), ("13B", 16), ("13B", 32), ("30B", 32), ("65B", 64))
SEARCH_SEQLENS_K = (32, 64, 128, 256, 512)
SEARCH_BATCHES = (16, 64, 256)
#: Lengths per (system, batch, cluster) in a search block.  Batch-16
#: searches are the cheapest and all sit below the median, so one length
#: each is enough; the costlier batches, which set the median and the tail,
#: get two.
SEARCH_LENGTHS_PER_CLUSTER = {16: 1, 64: 2, 256: 2}
#: Queries (one child each) of a traced search pass.
SEARCH_TRACE_QUERIES = 6

# -------------------------------------------------------------------- fleet

# Fleet reruns are ``paper`` sessions: one cold priming of a private cache
# directory, then fresh ``repro plan-fleet`` processes that load it.

#: Clusters of the fleet pool: a subset of the search pool's, so every fleet
#: row is checked against the same stored answer as a standalone search.
FLEET_CLUSTERS = (("7B", 8), ("7B", 16), ("13B", 16), ("13B", 32))
FLEET_SEQLENS_K = (32, 128)
FLEET_BATCHES = (16, 64)
FLEET_WORKERS = 2
#: ``plan-fleet`` reruns per paper pass, and per traced paper pass.  A
#: rerun's time follows both cores' speeds, which the calibration probe
#: (timed on one) tracks less well, so few of them sit above the tail.
FLEET_QUERIES = 2
FLEET_TRACE_QUERIES = 2

# --------------------------------------------------------------------- risk

#: (model, gpus, seqlen_k, global batch, ttrain target_iterations).  Under
#: ``RISK_JITTER`` every job's winner runs a pipeline schedule for every
#: objective, replica count and seed (``make_answers.py`` checks the pool's),
#: so each jitter query's answer carries the Monte-Carlo statistic that won;
#: the targets size each failure walk to about 2,500 simulated seconds.
RISK_JOBS = (
    ("65B", 64, 32, 16, 66),
    ("65B", 64, 32, 64, 17),
    ("65B", 64, 64, 64, 6),
    ("30B", 32, 64, 64, 7),
    ("65B", 32, 256, 16, 1),
)
#: Compute jitter only: stragglers inflate pipelined makespans enough that
#: tail objectives pick data-parallel winners, which have no schedule to score.
RISK_JITTER = "compute=0.05"
RISK_FAILURES = "mtbf=200000"
RISK_JITTER_OBJECTIVES = ("mean", "p95", "p99", "cvar")
RISK_TTRAIN_OBJECTIVES = ("ttrain_mean", "ttrain_p95", "ttrain_p99")
RISK_REPLICAS = (16, 32)
RISK_SEEDS = (0, 1, 2, 3)

# -------------------------------------------------------------------- paper

#: ``repro plan`` cells: (model, gpus, tp, cp, seqlen_k), each Table 3
#: cluster at four lengths.
PAPER_PLANS = tuple(
    (model, gpus, tp, cp, k)
    for model, gpus, tp, cp in (("7B", 8, 4, 2), ("13B", 16, 8, 2), ("30B", 32, 8, 4),
                                ("65B", 64, 8, 4))
    for k in (128, 256, 384, 512)
)
#: Table 3 lengths per ``repro table3`` call.
TABLE3_LENGTHS_PER_CALL = 4
#: Queries per paper session in a traced pass (keeps the traced run short).
PAPER_TRACE_QUERIES = 4


# ------------------------------------------------------------------ pools

def search_query(system: str, model: str, gpus: int, seqlen_k: int, batch: int) -> dict:
    return {"kind": "search", "system": system, "model": model, "gpus": gpus,
            "seqlen_k": seqlen_k, "batch": batch}


def search_pool() -> List[dict]:
    return [search_query(system, model, gpus, k, b)
            for system in SEARCH_SYSTEMS
            for model, gpus in SEARCH_CLUSTERS
            for k in SEARCH_SEQLENS_K
            for b in SEARCH_BATCHES]


def fleet_pool_points() -> List[list]:
    return [[model, gpus, k, b]
            for model, gpus in FLEET_CLUSTERS
            for k in FLEET_SEQLENS_K
            for b in FLEET_BATCHES]


def risk_scoring(job_index: int, replicas_index) -> tuple:
    """(objective, Monte-Carlo seed) of a job's jitter query with
    ``RISK_REPLICAS[replicas_index]`` replicas, or of its failure query
    (``replicas_index`` None); across the jobs every objective and seed
    recurs."""
    if replicas_index is None:
        return (RISK_TTRAIN_OBJECTIVES[job_index % len(RISK_TTRAIN_OBJECTIVES)],
                RISK_SEEDS[job_index % len(RISK_SEEDS)])
    slot = 2 * job_index + replicas_index
    return (RISK_JITTER_OBJECTIVES[slot % len(RISK_JITTER_OBJECTIVES)],
            RISK_SEEDS[(job_index + replicas_index) % len(RISK_SEEDS)])


def risk_pool() -> List[dict]:
    """Every job's jitter query at each replica count and its failure query,
    scored as ``risk_scoring`` fixes."""
    queries = []
    for index, (model, gpus, k, b, target) in enumerate(RISK_JOBS):
        job = [model, gpus, k, b]
        for replicas_index, replicas in enumerate(RISK_REPLICAS):
            objective, seed = risk_scoring(index, replicas_index)
            queries.append({"kind": "risk", "mode": "jitter", "job": job,
                            "objective": objective, "replicas": replicas, "seed": seed})
        objective, seed = risk_scoring(index, None)
        queries.append({"kind": "risk", "mode": "failures", "job": job,
                        "objective": objective, "seed": seed, "target_iterations": target})
    return queries


def paper_groups() -> Dict[str, List[dict]]:
    """One group per CLI invocation: ``table3`` per model and four lengths,
    ``table4``, ``table5`` and ``plan``, over the experiment modules' own
    grids."""
    from repro.experiments import table3, table4, table5

    groups: Dict[str, List[dict]] = {}
    # One ``repro table3 --models M --seqlens-k ...`` call per four lengths:
    # a session's cells share the machine's state while it runs, so spreading
    # each model's cells over four sessions keeps the pass's median from
    # resting on one session's few seconds.
    lengths = table3.TABLE3_SEQUENCE_LENGTHS_K
    for model, gpus in table3.TABLE3_WORKLOADS:
        for start in range(0, len(lengths), TABLE3_LENGTHS_PER_CALL):
            groups[f"table3-{model}-{lengths[start]}"] = [
                {"kind": "table3", "system": system, "model": model, "gpus": gpus, "seqlen_k": k}
                for k in lengths[start:start + TABLE3_LENGTHS_PER_CALL]
                for system in table3.SYSTEM_ORDER
            ]
    # A Table 4 query is one variant's row, a Table 5 query one length's
    # alpha sweep: the ablation rows run as the experiment modules run them.
    groups["table4"] = [{"kind": "table4", "variant": variant.value}
                        for _, variant in table4.TABLE4_VARIANTS]
    groups["table5"] = [{"kind": "table5", "seqlen_k": k} for k in table5.TABLE5_SEQUENCE_LENGTHS_K]
    groups["plan"] = [
        {"kind": "plan", "model": model, "gpus": gpus, "tp": tp, "cp": cp, "seqlen_k": k}
        for model, gpus, tp, cp, k in PAPER_PLANS
    ]
    return groups


def all_answer_queries() -> List[dict]:
    """Every query whose answer the stored table holds."""
    queries = search_pool() + risk_pool()
    for group in paper_groups().values():
        queries.extend(group)
    return queries


# ------------------------------------------------------------- answer keys

def answer_key(query: dict) -> str:
    kind = query["kind"]
    if kind == "search":
        fields = [query["system"], query["model"], query["gpus"], query["seqlen_k"], query["batch"]]
    elif kind == "risk":
        fields = [query["mode"], *query["job"], query["objective"],
                  query.get("replicas", "-"), query["seed"], query.get("target_iterations", "-")]
    elif kind == "table3":
        fields = [query["system"], query["model"], query["gpus"], query["seqlen_k"]]
    elif kind == "table4":
        fields = [query["variant"], query["seqlen_k"]]
    elif kind == "table5":
        fields = [query["alpha"], query["seqlen_k"]]
    elif kind == "plan":
        fields = [query["model"], query["gpus"], query["tp"], query["cp"], query["seqlen_k"]]
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return "|".join([kind] + [str(field) for field in fields])


def answer_keys(query: dict) -> List[str]:
    """Stored-answer rows a query's result is checked against, in order.

    A fleet query yields one row per grid point, each keyed like the
    standalone Megatron search of that point (cold == warm == parallel); a
    Table 4 or 5 query yields one row per cell of its row.
    """
    if query["kind"] == "fleet":
        return [answer_key(search_query("megatron", *point)) for point in query["points"]]
    if query["kind"] == "table4":
        from repro.experiments.table4 import TABLE4_SEQUENCE_LENGTHS_K

        return [answer_key(dict(query, seqlen_k=k)) for k in TABLE4_SEQUENCE_LENGTHS_K]
    if query["kind"] == "table5":
        from repro.experiments.table5 import TABLE5_ALPHAS

        return [answer_key(dict(query, alpha=alpha)) for alpha in TABLE5_ALPHAS]
    return [answer_key(query)]


# ------------------------------------------------------------ query streams

def _search_blocks(rng: random.Random) -> Iterator[List[dict]]:
    """Blocks of 60 one-query sessions: every (system, batch, cluster) triple
    at ``SEARCH_LENGTHS_PER_CLUSTER[batch]`` different lengths, with every
    length equally often, give or take one, in each (system, batch) pair's
    slots.  Batch size, cluster and length set a search's cost, so a block's
    cost mix barely depends on the seed.  With 60 queries the tail (ten
    queries above it) is the 83rd percentile."""
    clusters = len(SEARCH_CLUSTERS)
    while True:
        queries = []
        for system, batch in itertools.product(SEARCH_SYSTEMS, SEARCH_BATCHES):
            per = SEARCH_LENGTHS_PER_CLUSTER[batch]
            slots = per * clusters
            while True:
                lengths = list(SEARCH_SEQLENS_K) * (slots // len(SEARCH_SEQLENS_K))
                lengths += rng.sample(SEARCH_SEQLENS_K, slots - len(lengths))
                rng.shuffle(lengths)
                if all(len(set(lengths[per * i:per * (i + 1)])) == per for i in range(clusters)):
                    break
            for index, (model, gpus) in enumerate(SEARCH_CLUSTERS):
                queries.extend(search_query(system, model, gpus, k, batch)
                               for k in lengths[per * index:per * (index + 1)])
        rng.shuffle(queries)
        yield [{"queries": [query]} for query in queries]


def fleet_query(rng: random.Random) -> dict:
    """A four-point grid: one point per fleet cluster, seeded length and batch."""
    return {"kind": "fleet", "points": [
        [model, gpus, rng.choice(FLEET_SEQLENS_K), rng.choice(FLEET_BATCHES)]
        for model, gpus in FLEET_CLUSTERS
    ]}


def risk_sessions(rng: random.Random) -> List[dict]:
    """Two sessions, each set up with every job's deterministic search, then
    one jitter query per job, jobs in pool order; each job's one failure
    query follows its jitter query in one of the two sessions.  Each job is
    scored once with 16 and once with 32 Monte-Carlo replicas.

    The failure walks (about 1 s each) and the fleet reruns are the pass's
    only queries longer than 0.3 s; with one walk per job they number fewer
    than ten, so the paper tail falls among the searched Table 3 cells and
    jitter queries, which the calibration probes scale well.  A query's
    cost depends on its objective and Monte-Carlo seed, so these are fixed
    per job and replica count (``risk_scoring``): the workload seed decides
    which session each query runs in, not which queries a pass holds."""
    replicas = [index % 2 for index in range(len(RISK_JOBS))]
    rng.shuffle(replicas)
    walk_session = [rng.randrange(2) for _ in RISK_JOBS]
    sessions = []
    for flip in (0, 1):
        queries = []
        for index, ((model, gpus, k, b, target), first, walk) in enumerate(
                zip(RISK_JOBS, replicas, walk_session)):
            job = [model, gpus, k, b]
            objective, seed = risk_scoring(index, first ^ flip)
            queries.append({"kind": "risk", "mode": "jitter", "job": job,
                            "objective": objective, "replicas": RISK_REPLICAS[first ^ flip],
                            "seed": seed})
            if walk == flip:
                objective, seed = risk_scoring(index, None)
                queries.append({"kind": "risk", "mode": "failures", "job": job,
                                "objective": objective, "seed": seed,
                                "target_iterations": target})
        sessions.append({"group": "risk", "setup": "risk", "queries": queries})
    return sessions


def paper_pass(rng: random.Random, trace: bool = False) -> List[dict]:
    """Every paper group, both risk sessions and the fleet reruns once, the
    sessions in seeded order after the fleet cache's priming.  Inside a
    session the queries run in the CLI's order: the caches a session warms
    make a query's cost depend on what ran before it, and a fixed order keeps
    the pass's cost mix the same for every seed.  A traced pass keeps only
    the first few queries of each session and the first few fleet reruns."""
    sessions = [{"group": name, "queries": list(queries)}
                for name, queries in paper_groups().items()]
    sessions.extend(risk_sessions(rng))
    reruns = FLEET_TRACE_QUERIES if trace else FLEET_QUERIES
    sessions.extend({"group": "fleet", "queries": [fleet_query(rng)]} for _ in range(reruns))
    rng.shuffle(sessions)
    if trace:
        for session in sessions:
            session["queries"] = session["queries"][:PAPER_TRACE_QUERIES]
    return [{"group": "fleet", "setup": "prime", "queries": []}] + sessions


def _paper_blocks(rng: random.Random) -> Iterator[List[dict]]:
    while True:
        yield paper_pass(rng)


BLOCKS = {
    "search": _search_blocks,
    "paper": _paper_blocks,
}

WORKLOADS = tuple(BLOCKS)


def blocks(workload: str, seed: int) -> Iterator[List[dict]]:
    """The workload's block stream for a seed (same seed, same stream)."""
    return BLOCKS[workload](random.Random(f"{workload}:{seed}"))


def trace_sessions(workload: str, seed: int) -> List[dict]:
    """The fixed session list a traced run repeats (same seed, same list)."""
    if workload == "paper":
        return paper_pass(random.Random(f"paper:{seed}"), trace=True)
    return next(blocks(workload, seed))[:SEARCH_TRACE_QUERIES]
