"""Property-based correctness suite for sharded streaming execution.

Sharding's safety case mirrors the chunking one (``strategies.py``): on
the dyadic scenario domain every float the pipeline produces is exact, so
a sharded run must equal the serial run **bit-for-bit** — any difference
is a real carry/merge bug, never float noise.  The suite pins:

* **Planner soundness** — shard plans partition the chunk range exactly,
  for any shard count and chunk geometry.
* **Sharded == serial** — every native streaming scheduler and the
  in-memory fallback produce bit-identical bounded metrics, per-VM
  accumulators, and (in collect mode) assignments and per-cloudlet
  timelines across shard counts {1, 2, 3, 7} × uneven chunk geometries.

Shards run inline (``shard_parallel=False``) so hypothesis examples stay
fast; the spawn-pool transport is covered by the integration tests in
``tests/cloud/test_sharded_streaming.py`` (identical shard math — the
pool only moves where :func:`~repro.cloud.fast.execute_shard` runs).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.fast import StreamingSimulation
from repro.schedulers import make_scheduler
from repro.schedulers.streaming import (
    STREAMING_SCHEDULERS,
    make_streaming_scheduler,
)
from repro.workloads.streaming import ScenarioChunks, plan_shards

from tests.properties.strategies import chunk_sizes, dyadic_scenarios

COMMON = settings(max_examples=20, deadline=None, derandomize=True)

#: shard counts exercised against every scenario — serial-degenerate,
#: even, odd, and more shards than most drawn streams have chunks.
SHARD_COUNTS = (1, 2, 3, 7)

#: in-memory schedulers exercising the materialising fallback path.
FALLBACK_SCHEDULERS = ("maxmin",)


def _stream(spec, chunk_size: int) -> ScenarioChunks:
    return ScenarioChunks.from_spec(spec, chunk_size=chunk_size)


#: ``info`` keys a sharded run may report differently from the serial run.
SHARD_VARIANT_INFO = ("shards", "peak_rss_bytes")


def _shard_invariant_info(info: dict) -> dict:
    return {k: v for k, v in info.items() if k not in SHARD_VARIANT_INFO}


def _assert_bounded_equal(sharded, serial) -> None:
    assert sharded.makespan == serial.makespan
    assert sharded.time_imbalance == serial.time_imbalance
    assert sharded.total_cost == serial.total_cost
    assert sharded.num_chunks == serial.num_chunks
    assert sharded.vm_finish_times.tobytes() == serial.vm_finish_times.tobytes()
    assert sharded.vm_costs.tobytes() == serial.vm_costs.tobytes()


# -- planner soundness --------------------------------------------------------


@COMMON
@given(
    num_cloudlets=st.integers(1, 500),
    chunk_size=chunk_sizes(),
    shards=st.integers(1, 9),
)
def test_shard_plans_partition_the_stream(num_cloudlets, chunk_size, shards):
    from repro.workloads.streaming import homogeneous_stream

    stream = homogeneous_stream(5, num_cloudlets, chunk_size=chunk_size)
    plans = plan_shards(stream, shards)
    assert 1 <= len(plans) <= min(shards, stream.num_chunks)
    assert plans[0].chunk_start == 0
    assert plans[-1].chunk_stop == stream.num_chunks
    assert plans[0].start == 0
    assert plans[-1].stop == num_cloudlets
    for prev, nxt in zip(plans, plans[1:]):
        assert prev.chunk_stop == nxt.chunk_start
        assert prev.stop == nxt.start
    assert sum(p.num_cloudlets for p in plans) == num_cloudlets
    assert sum(p.num_chunks for p in plans) == stream.num_chunks


# -- sharded == serial, native schedulers -------------------------------------


@COMMON
@given(spec=dyadic_scenarios(), chunk_size=chunk_sizes(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_sharded_equals_serial_bounded(name, spec, chunk_size, seed):
    stream = _stream(spec, chunk_size)
    serial = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=seed
    ).run()
    for shards in SHARD_COUNTS:
        sharded = StreamingSimulation(
            stream,
            make_streaming_scheduler(name),
            seed=seed,
            shards=shards,
            shard_parallel=False,
        ).run()
        _assert_bounded_equal(sharded, serial)
        # Assigner diagnostics (HBO's per-datacenter counts, RBS's walk
        # length, greedy's makespan estimate) and the manifest match too.
        assert _shard_invariant_info(sharded.info) == _shard_invariant_info(serial.info)


@COMMON
@given(
    spec=dyadic_scenarios(max_cloudlets=60),
    chunk_size=chunk_sizes(),
    seed=st.integers(0, 2**16),
)
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_sharded_collect_mode_is_byte_equal(name, spec, chunk_size, seed):
    stream = _stream(spec, chunk_size)
    serial = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=seed, collect=True
    ).run()
    for shards in (2, 3, 7):
        sharded = StreamingSimulation(
            stream,
            make_streaming_scheduler(name),
            seed=seed,
            collect=True,
            shards=shards,
            shard_parallel=False,
        ).run()
        assert sharded.assignment.tobytes() == serial.assignment.tobytes()
        assert sharded.start_times.tobytes() == serial.start_times.tobytes()
        assert sharded.finish_times.tobytes() == serial.finish_times.tobytes()
        assert sharded.costs.tobytes() == serial.costs.tobytes()
        assert sharded.makespan == serial.makespan
        assert sharded.total_cost == serial.total_cost


# -- sharded == serial, materialising fallback --------------------------------


@COMMON
@given(
    spec=dyadic_scenarios(max_cloudlets=60),
    chunk_size=chunk_sizes(),
    seed=st.integers(0, 2**16),
)
@pytest.mark.parametrize("name", FALLBACK_SCHEDULERS)
def test_sharded_fallback_equals_serial(name, spec, chunk_size, seed):
    stream = _stream(spec, chunk_size)
    serial = StreamingSimulation(stream, make_scheduler(name), seed=seed).run()
    for shards in SHARD_COUNTS:
        sharded = StreamingSimulation(
            stream,
            make_scheduler(name),
            seed=seed,
            shards=shards,
            shard_parallel=False,
        ).run()
        _assert_bounded_equal(sharded, serial)
