"""Constant streams fold from counts: the rebuild against independent oracles.

A bounded run of a :class:`~repro.workloads.streaming.ConstantCloudlets`
stream counts each VM's cloudlets and rebuilds its accumulators from the
counts at every shard count, serial included.  Serial and sharded runs
therefore rebuild the same way, and their agreement no longer checks the
fold on constant workloads.  These tests check it against one
``np.add.at`` fold over a collect-mode run's assignment and per-cloudlet
costs instead, and pin the shared read-only chunk columns the constant
sources hand out.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cloud import fast
from repro.cloud.fast import StreamingSimulation, _repeated_add_fold, shutdown_shard_pool
from repro.schedulers.streaming import make_streaming_scheduler
from repro.workloads.streaming import heterogeneous_stream, homogeneous_stream

SCHEDULERS = ("basetest", "greedy-mct", "honeybee", "rbs")
FLEETS = ("homogeneous", "mixed")
SEED = 2016
#: chunk size -> cloudlet count (at least three chunks, so three shards).
GEOMETRIES = {1: 1500, 333: 10_001, 4096: 10_001}
#: (shards, shard_parallel) of the bounded runs checked against the oracle.
RUNS = ((None, False), (2, False), (3, False), (2, True), (3, True))


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_shard_pool()


def _constant_stream(fleet: str, chunk_size: int, num_cloudlets: int, num_vms: int = 13):
    stream = homogeneous_stream(
        num_vms, num_cloudlets, num_datacenters=3, chunk_size=chunk_size, seed=SEED
    )
    if fleet == "homogeneous":
        return stream
    # Repeated and distinct speeds, non-dyadic execution times and prices.
    mips = np.array([250.0, 333.3, 500.0, 1000.0 / 3.0, 712.5])
    return dataclasses.replace(
        stream,
        vm_mips=mips[np.arange(num_vms) % mips.size],
        dc_cost_per_mem=np.array([0.0517, 0.0613, 0.0731]),
        dc_cost_per_storage=np.array([0.0013, 0.0021, 0.0029]),
        dc_cost_per_bw=np.array([0.011, 0.023, 0.037]),
        dc_cost_per_cpu=np.array([3.07, 3.19, 3.31]),
    )


def _add_at_oracle(stream, name: str):
    """Accumulators and scalars of one ``np.add.at`` fold over a collect run."""
    collected = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, collect=True
    ).run()
    arrays = stream.to_arrays()
    assignment = collected.assignment
    exec_times = arrays.cloudlet_length / arrays.vm_mips[assignment]
    backlog = np.zeros(stream.num_vms)
    vm_costs = np.zeros(stream.num_vms)
    np.add.at(backlog, assignment, exec_times)
    np.add.at(vm_costs, assignment, collected.costs)
    mean_exec = float(backlog.sum()) / stream.num_cloudlets
    scalars = (
        float(backlog.max()),
        float((exec_times.max() - exec_times.min()) / mean_exec),
        float(vm_costs.sum()),
    )
    return backlog, vm_costs, scalars


@pytest.mark.parametrize("chunk_size", sorted(GEOMETRIES))
@pytest.mark.parametrize("fleet", FLEETS)
@pytest.mark.parametrize("name", SCHEDULERS)
def test_bounded_constant_runs_equal_the_add_at_fold(name, fleet, chunk_size):
    stream = _constant_stream(fleet, chunk_size, GEOMETRIES[chunk_size])
    backlog, vm_costs, scalars = _add_at_oracle(stream, name)
    for shards, parallel in RUNS:
        result = StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=SEED,
            shards=shards, shard_parallel=parallel,
        ).run()
        where = f"shards={shards}, shard_parallel={parallel}"
        assert result.vm_finish_times.tobytes() == backlog.tobytes(), where
        assert result.vm_costs.tobytes() == vm_costs.tobytes(), where
        assert (result.makespan, result.time_imbalance, result.total_cost) == scalars, where


@pytest.mark.parametrize("name", SCHEDULERS)
def test_serial_bounded_constant_run_never_folds_floats(name, monkeypatch):
    calls = []
    original = fast.fold_exec_times

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fast, "fold_exec_times", spy)
    stream = homogeneous_stream(13, 5000, chunk_size=333, seed=SEED)
    StreamingSimulation(stream, make_streaming_scheduler(name), seed=SEED).run()
    assert calls == []
    # The spy is live: a random-length stream folds every chunk through it.
    hetero = heterogeneous_stream(13, 5000, chunk_size=333, seed=SEED)
    StreamingSimulation(hetero, make_streaming_scheduler(name), seed=SEED).run()
    assert len(calls) == hetero.num_chunks


@pytest.mark.parametrize("chunk_start", [0, 1])
def test_constant_chunks_share_read_only_columns(chunk_start):
    stream = homogeneous_stream(5, 10, chunk_size=4, seed=SEED)  # chunks 4, 4, 2
    source = stream.cloudlets
    expected = {
        "cloudlet_length": (source.length, np.float64),
        "cloudlet_pes": (source.pes, np.int64),
        "cloudlet_file_size": (source.file_size, np.float64),
        "cloudlet_output_size": (source.output_size, np.float64),
    }
    chunks = [chunk for _, chunk in stream.iter_range(chunk_start, stream.num_chunks)]
    for name, (value, dtype) in expected.items():
        columns = [getattr(chunk, name) for chunk in chunks]
        first, tail = columns[0], columns[-1]
        for column in columns:
            assert not column.flags.writeable, name
            assert np.shares_memory(column, first), name
            assert column.dtype == dtype, name
            assert column.tobytes() == np.full(column.shape[0], value, dtype).tobytes()
        # The short last chunk is a prefix of the pass's columns.
        assert tail.shape == (2,)
        assert tail.ctypes.data == first.ctypes.data, name


def test_random_length_chunks_share_only_their_constant_columns():
    stream = heterogeneous_stream(5, 10, chunk_size=4, seed=SEED)
    chunks = [chunk for _, chunk in stream]
    for name in ("cloudlet_pes", "cloudlet_file_size", "cloudlet_output_size"):
        assert all(not getattr(c, name).flags.writeable for c in chunks), name
        assert np.shares_memory(getattr(chunks[0], name), getattr(chunks[-1], name))
    lengths = [chunk.cloudlet_length for chunk in chunks]
    assert not np.shares_memory(lengths[0], lengths[1])
    assert np.concatenate(lengths).tobytes() == stream.to_arrays().cloudlet_length.tobytes()


def test_repeated_add_fold_on_a_skewed_fleet():
    """One very fast VM takes nearly every cloudlet; a thousand distinct
    speeds share the rest, so each speed is accumulated only as far as its
    own VMs' counts reach."""
    mips = np.linspace(250.0, 300.0, 1000)
    mips[0] = 1e7
    stream = dataclasses.replace(
        homogeneous_stream(1000, 60_000, chunk_size=16_384, seed=SEED), vm_mips=mips
    )
    collected = StreamingSimulation(
        stream, make_streaming_scheduler("greedy-mct"), seed=SEED, collect=True
    ).run()
    assignment = collected.assignment
    counts = np.bincount(assignment, minlength=stream.num_vms)
    assert counts[0] > 100 * counts[1:].max() > 0
    exec_const = stream.cloudlets.length / mips
    cost_const = np.zeros(stream.num_vms)
    cost_const[assignment] = collected.costs
    assert (cost_const[assignment] == collected.costs).all()  # one cost per VM
    for per_vm, per_cloudlet in (
        (exec_const, exec_const[assignment]),
        (cost_const, collected.costs),
    ):
        expected = np.zeros(stream.num_vms)
        np.add.at(expected, assignment, per_cloudlet)
        assert _repeated_add_fold(per_vm, counts).tobytes() == expected.tobytes()
