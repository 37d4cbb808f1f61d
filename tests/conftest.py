"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

# Property tests must pass deterministically: derive examples from the test
# body instead of a per-run random seed.
hypothesis_settings.register_profile("repro-deterministic", derandomize=True)
hypothesis_settings.load_profile("repro-deterministic")

from types import SimpleNamespace

from repro.hardware.cluster import make_a800_cluster
from repro.model.specs import get_model_config
from repro.model.trace import full_model_trace, layer_forward_trace
from repro.parallel.search import (
    PIPELINE_SCHEDULE_CANDIDATES,
    bounded_argmin,
    resolve_schedule,
    resolve_schedule_shape,
    viable_schedule_kind,
)
from repro.parallel.strategy import ParallelismConfig
from repro.sim.fastpath import (
    evaluate_schedule,
    pipeline_lower_bound_for_shape,
    wave_ratio_from_costs,
)
from repro.sim.pipeline import StageCosts
from repro.sim.schedules import ScheduleKind
from repro.train.gpt import MiniGPT, MiniGPTConfig


@pytest.fixture(scope="session")
def gpt7b():
    """The 7B model configuration from Table 2."""
    return get_model_config("7B")


@pytest.fixture(scope="session")
def gpt65b():
    """The 65B model configuration from Table 2."""
    return get_model_config("65B")


@pytest.fixture(scope="session")
def cluster8():
    """One A800 node (8 GPUs, 2 TB host memory)."""
    return make_a800_cluster(8)


@pytest.fixture(scope="session")
def cluster64():
    """Eight A800 nodes (64 GPUs)."""
    return make_a800_cluster(64)


@pytest.fixture
def tp4cp2():
    """The ablation parallelism configuration: TP=4, CP=2 on 8 GPUs."""
    return ParallelismConfig(tensor_parallel=4, context_parallel=2)


@pytest.fixture(scope="session")
def small_layer_trace(gpt7b):
    """Transient-only forward trace of one 7B layer at a small sequence length."""
    return layer_forward_trace(gpt7b, batch_size=1, sequence_length=1024, include_skeletal=False)


@pytest.fixture(scope="session")
def small_iteration_trace(gpt7b):
    """Full-iteration trace of a 4-layer slice of the 7B model (small sequence)."""
    return full_model_trace(gpt7b, batch_size=1, sequence_length=1024, num_layers=4)


@pytest.fixture(scope="session")
def tiny_gpt_config():
    """A mini-GPT configuration small enough for gradient checks."""
    return MiniGPTConfig(
        vocab_size=31, hidden_size=16, ffn_hidden_size=32, num_layers=4,
        num_heads=2, max_sequence_length=32, seed=3,
    )


@pytest.fixture
def tiny_gpt(tiny_gpt_config):
    """A freshly initialised mini-GPT."""
    return MiniGPT(tiny_gpt_config)


@pytest.fixture
def rng():
    """A deterministic NumPy random generator."""
    return np.random.default_rng(0)


def _uniform_schedule_sweep(
    parallel, forward_s, backward_s, num_micro_batches=None, p2p_time_s=0.0,
    backward_weight_fraction=None, prune=True, score=None,
):
    """Pick the fastest schedule kind for one PP point with uniform stage costs.

    Resolves every auto-sweep kind as the training systems do (interleaving
    asks for two chunks, ZB-V degrades when it cannot be placed, shapes that
    resolve alike collapse), builds each with :func:`resolve_schedule`,
    scores it with ``score(schedule, costs, bandwidth)`` -- the
    :func:`evaluate_schedule` makespan by default -- and selects with
    :func:`bounded_argmin` over the analytic lower bounds (no floors when
    ``prune`` is off).  Returns the winner's ``kind``, deterministic
    ``timeline`` and ``score``, plus the ``pruned`` count.
    """
    bandwidth = 1.0 / p2p_time_s if p2p_time_s > 0 else float("inf")
    shapes, seen = [], set()
    for kind in PIPELINE_SCHEDULE_CANDIDATES:
        kind = viable_schedule_kind(kind, parallel.pipeline_parallel, None)
        chunks = 1 if kind is ScheduleKind.ZB_V else 2
        shape = resolve_schedule_shape(parallel, kind, num_micro_batches, chunks)
        if (shape[0], shape[3]) not in seen:
            seen.add((shape[0], shape[3]))
            shapes.append(shape)

    def costs_for(shape):
        backward = backward_s / shape[3]
        return StageCosts(
            forward_s=forward_s / shape[3],
            backward_s=backward,
            # One byte over a 1/t bytes/s link: a per-hop time of t seconds.
            p2p_bytes=1.0 if p2p_time_s > 0 else 0.0,
            backward_weight_s=(
                None if backward_weight_fraction is None
                else backward_weight_fraction * backward
            ),
        )

    def evaluate(index):
        kind, _, micro_batches, chunks = shapes[index]
        costs = costs_for(shapes[index])
        schedule = resolve_schedule(
            parallel, kind, micro_batches, chunks,
            wave_ratio=wave_ratio_from_costs(costs) if kind is ScheduleKind.ZB_V else None,
        )
        timeline = evaluate_schedule(
            schedule, costs, p2p_bandwidth_bytes_per_s=bandwidth,
        )
        return SimpleNamespace(
            feasible=True, kind=kind, timeline=timeline,
            iteration_time_s=(
                timeline.total_s if score is None
                else score(schedule, costs, bandwidth)
            ),
        )

    floors = [
        pipeline_lower_bound_for_shape(
            *shape, costs_for(shape), p2p_bandwidth_bytes_per_s=bandwidth,
        ) if prune else None
        for shape in shapes
    ]
    winner, evaluated, pruned = bounded_argmin(floors, evaluate)
    result = dict(evaluated)[winner]
    return SimpleNamespace(
        kind=result.kind, timeline=result.timeline,
        score=result.iteration_time_s, pruned=pruned,
    )


@pytest.fixture(scope="session")
def uniform_schedule_sweep():
    """The schedule sweep over uniform synthetic stage costs, as a function."""
    return _uniform_schedule_sweep
