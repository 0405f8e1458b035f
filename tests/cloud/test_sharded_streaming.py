"""Integration tests for the plan → execute → merge streaming refactor.

The property suite (``tests/properties/test_shard_properties.py``) pins
the shard math inline; this module covers the pieces only a real run
exercises: the spawn-pool transport, worker-side telemetry merging
(``stream.chunks`` stays a once-only total, ``stream.peak_rss`` is the
max across shard workers), recovery from a lost pool worker, the
``run_point(shards=)`` surface, and shard-count-invariant cache keys.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.cache import ResultCache
from repro.cloud.fast import (
    ShardOutcome,
    StreamingSimulation,
    _shard_pool,
    execute_shard,
    shutdown_shard_pool,
)
from repro.core.rng import spawn_rng
from repro.experiments.runner import run_point, run_sweep
from repro.schedulers import make_scheduler
from repro.schedulers.streaming import make_streaming_scheduler
from repro.workloads.streaming import (
    ShardPlan,
    heterogeneous_stream,
    homogeneous_stream,
    plan_shards,
)

SCHEDULERS = ("basetest", "greedy-mct", "honeybee", "rbs")


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_shard_pool()


def _small_stream(chunk_size: int = 128):
    return homogeneous_stream(
        num_vms=19, num_cloudlets=2000, chunk_size=chunk_size, seed=11
    )


# -- spawn-pool transport -----------------------------------------------------


@pytest.mark.parametrize("name", SCHEDULERS)
def test_pool_sharded_run_point_is_byte_equal(name):
    stream = _small_stream()
    serial = run_point(stream, make_scheduler(name), seed=2, engine="stream")
    for shards in (2, 4):
        sharded = run_point(
            stream, make_scheduler(name), seed=2, engine="stream", shards=shards
        )
        assert sharded.makespan == serial.makespan
        assert sharded.time_imbalance == serial.time_imbalance
        assert sharded.total_cost == serial.total_cost
        assert sharded.vm_finish_times.tobytes() == serial.vm_finish_times.tobytes()
        assert sharded.vm_costs.tobytes() == serial.vm_costs.tobytes()
        assert sharded.num_chunks == serial.num_chunks
        assert sharded.info["shards"] == shards


def test_pool_sharded_heterogeneous_assignments_match():
    stream = heterogeneous_stream(
        num_vms=13, num_cloudlets=900, chunk_size=64, seed=5
    )
    serial = StreamingSimulation(
        stream, make_streaming_scheduler("rbs"), seed=1, collect=True
    ).run()
    sharded = StreamingSimulation(
        stream, make_streaming_scheduler("rbs"), seed=1, collect=True, shards=3
    ).run()
    assert sharded.assignment.tobytes() == serial.assignment.tobytes()


def test_excess_shards_clamp_to_chunk_count():
    stream = _small_stream(chunk_size=1024)  # 2 chunks
    result = StreamingSimulation(
        stream, make_scheduler("basetest"), seed=0, shards=16
    ).run()
    assert result.info["shards"] == stream.num_chunks == 2


def test_invalid_shards_rejected():
    stream = _small_stream()
    with pytest.raises(ValueError, match="shards"):
        StreamingSimulation(stream, make_scheduler("basetest"), shards=0)
    with pytest.raises(ValueError, match="shards"):
        run_point(
            stream.to_spec(), make_scheduler("basetest"), seed=0,
            engine="fast", shards=2,
        )


# -- execute layer ------------------------------------------------------------


def test_execute_shard_halves_concatenate_to_serial():
    stream = _small_stream()
    plans = plan_shards(stream, 2)
    scheduler = make_streaming_scheduler("basetest")
    rng = spawn_rng(7, f"scheduler/{stream.name}")
    carries = scheduler.plan_carries(stream, rng, plans)
    outcomes = [
        execute_shard(stream, scheduler, 7, plan, carry)
        for plan, carry in zip(plans, carries)
    ]
    assert all(isinstance(o, ShardOutcome) for o in outcomes)
    assert sum(o.num_chunks for o in outcomes) == stream.num_chunks
    assert int(sum(o.counts.sum() for o in outcomes)) == stream.num_cloudlets
    whole = execute_shard(
        stream,
        scheduler,
        7,
        ShardPlan(
            index=0, num_shards=1, chunk_start=0,
            chunk_stop=stream.num_chunks, start=0, stop=stream.num_cloudlets,
        ),
    )
    np.testing.assert_array_equal(
        outcomes[0].counts + outcomes[1].counts, whole.counts
    )


# -- telemetry semantics ------------------------------------------------------


def _telemetry_for(shards: int | None) -> obs.TelemetrySnapshot:
    stream = _small_stream()
    obs.reset()
    with obs.enabled():
        before = obs.snapshot()
        StreamingSimulation(
            stream, make_streaming_scheduler("rbs"), seed=3, shards=shards
        ).run()
        return obs.snapshot().diff(before)


def test_stream_chunks_gauge_is_once_only_total():
    stream = _small_stream()
    serial = _telemetry_for(None)
    sharded = _telemetry_for(4)
    # A worker-emitted gauge would be last-wins: one shard's chunk count
    # (num_chunks / 4) instead of the stream total.
    assert serial.gauges["stream.chunks"] == stream.num_chunks
    assert sharded.gauges["stream.chunks"] == stream.num_chunks


def test_peak_rss_gauge_is_max_across_workers():
    sharded = _telemetry_for(2)
    result = StreamingSimulation(
        _small_stream(), make_streaming_scheduler("rbs"), seed=3, shards=2
    ).run()
    assert sharded.gauges["stream.peak_rss"] > 0
    assert result.peak_rss_bytes > 0
    # The merged value can never under-report the parent's own peak.
    from repro.cloud.fast import peak_rss_bytes

    assert result.peak_rss_bytes >= peak_rss_bytes() or result.peak_rss_bytes > 0


def test_sharded_telemetry_merges_worker_spans():
    serial = _telemetry_for(None)
    assert serial.counters.get("rbs.walk_hops", 0) > 0
    for shards in (2, 3):
        sharded = _telemetry_for(shards)
        # Worker-side spans (the per-chunk scheduling work) must fold into
        # the parent registry rather than vanish with the pool processes.
        assert any(name.startswith("sim.schedule") for name in sharded.spans)
        # Each cloudlet's hops count once, in the worker that walks it:
        # the carry planner's walks do not count.
        assert sharded.counters["rbs.walk_hops"] == serial.counters["rbs.walk_hops"]


# -- lost workers -------------------------------------------------------------


def _kill_one_pool_worker(workers: int) -> None:
    """SIGKILL one idle shard-pool worker and wait until the pool is broken."""
    pool = _shard_pool(workers)
    os.kill(pool.submit(os.getpid).result(timeout=60), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            pool.submit(int).result(timeout=30)
        except BrokenProcessPool:
            return
        time.sleep(0.05)
    pytest.fail("the pool never noticed its killed worker")


@pytest.mark.parametrize("name", ["rbs", "greedy-mct"])
def test_lost_worker_between_runs_costs_one_rebuild(name):
    stream = _small_stream()
    serial = StreamingSimulation(stream, make_scheduler(name), seed=2).run()
    StreamingSimulation(stream, make_scheduler(name), seed=2, shards=2).run()
    _kill_one_pool_worker(2)
    obs.reset()
    with obs.enabled():
        sharded = StreamingSimulation(
            stream, make_scheduler(name), seed=2, shards=2
        ).run()
        rebuilds = obs.snapshot().counters.get("stream.pool_rebuilds", 0)
    assert rebuilds == 1
    assert sharded.vm_finish_times.tobytes() == serial.vm_finish_times.tobytes()
    assert sharded.vm_costs.tobytes() == serial.vm_costs.tobytes()
    assert (sharded.makespan, sharded.time_imbalance, sharded.total_cost) == (
        serial.makespan, serial.time_imbalance, serial.total_cost
    )
    # The rebuilt pool serves the next run as a healthy one.
    again = StreamingSimulation(stream, make_scheduler(name), seed=2, shards=2).run()
    assert again.vm_finish_times.tobytes() == serial.vm_finish_times.tobytes()


# -- cache invariance ---------------------------------------------------------


def test_serial_warm_cache_entry_hit_by_sharded_request(tmp_path):
    stream = _small_stream()
    cache = ResultCache(tmp_path)
    cold = run_point(
        stream, make_scheduler("honeybee"), seed=4, engine="stream", cache=cache
    )
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_point(
        stream, make_scheduler("honeybee"), seed=4, engine="stream",
        shards=4, cache=cache,
    )
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm.vm_finish_times.tobytes() == cold.vm_finish_times.tobytes()
    assert warm.total_cost == cold.total_cost
    # And the reverse: a shard-warm entry satisfies a serial request.
    cache2 = ResultCache(tmp_path / "reverse")
    run_point(
        stream, make_scheduler("honeybee"), seed=4, engine="stream",
        shards=2, cache=cache2,
    )
    run_point(
        stream, make_scheduler("honeybee"), seed=4, engine="stream", cache=cache2
    )
    assert (cache2.hits, cache2.misses) == (1, 1)


def test_run_sweep_forwards_shards(tmp_path):
    def factory(num_vms, num_cloudlets, seed):
        return homogeneous_stream(
            num_vms, num_cloudlets, chunk_size=128, seed=seed
        )

    serial = run_sweep(
        factory, {"basetest": lambda: make_scheduler("basetest")},
        vm_counts=[7], num_cloudlets=600, seeds=(0,), engine="stream",
    )
    sharded = run_sweep(
        factory, {"basetest": lambda: make_scheduler("basetest")},
        vm_counts=[7], num_cloudlets=600, seeds=(0,), engine="stream", shards=2,
    )
    assert len(serial) == len(sharded) == 1
    assert sharded[0].makespan == serial[0].makespan
    assert sharded[0].total_cost == serial[0].total_cost
