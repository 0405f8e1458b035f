"""Differential test: streaming path vs the in-memory analytic path.

Collect-mode :class:`~repro.cloud.fast.StreamingSimulation` must produce
a byte-equal :class:`~repro.cloud.simulation.SimulationResult` for the
paper's four schedulers on the homogeneous family (whose execution times
``250 / 1000`` are exact), with telemetry off and on — the pinned proof
that chunked execution changes *where* the work happens, never *what* it
computes.  Bounded mode must agree with collect mode on everything both
report, and the in-memory fallback must keep metaheuristics usable on
the streaming entry points.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cloud.fast import FastSimulation, StreamingResult, StreamingSimulation
from repro.core.rng import spawn_rng
from repro.experiments.runner import run_point
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.streaming import InMemoryFallback, make_streaming_scheduler
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.streaming import ScenarioChunks, homogeneous_stream

#: the four paper schedulers with native streaming implementations.
STREAMED = ("basetest", "greedy-mct", "honeybee", "rbs")
#: per-cloudlet arrays that must round-trip byte-for-byte.
ARRAY_FIELDS = (
    "assignment",
    "submission_times",
    "start_times",
    "finish_times",
    "exec_times",
    "costs",
)
SCALAR_FIELDS = ("makespan", "time_imbalance", "total_cost")

NUM_VMS, NUM_CLOUDLETS, SEED, CHUNK = 10, 257, 3, 64


@pytest.fixture(params=[False, True], ids=["telemetry-off", "telemetry-on"])
def telemetry_state(request):
    with obs.enabled(request.param):
        yield request.param


@pytest.fixture()
def spec():
    return homogeneous_scenario(NUM_VMS, NUM_CLOUDLETS, seed=SEED)


@pytest.fixture()
def stream():
    return homogeneous_stream(NUM_VMS, NUM_CLOUDLETS, seed=SEED, chunk_size=CHUNK)


@pytest.mark.parametrize("name", STREAMED)
def test_collect_mode_result_is_byte_equal(telemetry_state, spec, stream, name):
    memory = FastSimulation(spec, make_scheduler(name), seed=SEED).run()
    streamed = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, collect=True
    ).run()
    assert streamed.scenario_name == memory.scenario_name
    assert streamed.scheduler_name == memory.scheduler_name
    for field in SCALAR_FIELDS:
        assert getattr(streamed, field) == getattr(memory, field), field
    for field in ARRAY_FIELDS:
        a, b = getattr(streamed, field), getattr(memory, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field
    # engine provenance legitimately differs; the telemetry/info dict is
    # exempt from byte-equality by design.
    assert streamed.info["engine"] == "stream"
    assert memory.info["engine"] == "fast"
    if telemetry_state:
        assert "telemetry" in streamed.info


@pytest.mark.parametrize("name", STREAMED)
def test_bounded_mode_agrees_with_collect_mode(telemetry_state, stream, name):
    bounded = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED
    ).run()
    collected = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, collect=True
    ).run()
    assert isinstance(bounded, StreamingResult)
    # Makespan and imbalance are exact here (execution times 250/1000 are
    # dyadic); total_cost folds per-VM instead of summing pairwise over
    # cloudlets, so it may differ by reassociation ulps only.
    assert bounded.makespan == collected.makespan
    assert bounded.time_imbalance == collected.time_imbalance
    assert bounded.total_cost == pytest.approx(collected.total_cost, rel=1e-12)
    assert bounded.num_cloudlets == NUM_CLOUDLETS
    assert bounded.num_chunks == -(-NUM_CLOUDLETS // CHUNK)
    assert bounded.peak_rss_bytes > 0
    # Per-VM finish times must equal each VM's final backlog in collect mode.
    finals = np.zeros(NUM_VMS)
    np.maximum.at(finals, collected.assignment, collected.finish_times)
    occupied = np.isin(np.arange(NUM_VMS), collected.assignment)
    assert np.array_equal(bounded.vm_finish_times[occupied], finals[occupied])
    assert (bounded.vm_finish_times[~occupied] == 0).all()


def test_metaheuristic_falls_back_to_in_memory(telemetry_state, spec, stream):
    memory = FastSimulation(spec, make_scheduler("maxmin"), seed=SEED).run()
    fallback = StreamingSimulation(stream, make_scheduler("maxmin"), seed=SEED).run()
    assert fallback.info["streaming_native"] is False
    assert fallback.scheduler_name == "maxmin"
    assert fallback.makespan == memory.makespan
    assert fallback.time_imbalance == memory.time_imbalance
    assert fallback.total_cost == pytest.approx(memory.total_cost, rel=1e-12)


@pytest.mark.parametrize("name", STREAMED)
def test_run_point_stream_engine_matches_fast_engine(name, spec, stream):
    fast = run_point(spec, make_scheduler(name), seed=SEED, engine="fast")
    streamed = run_point(stream, make_scheduler(name), seed=SEED, engine="stream")
    assert isinstance(streamed, StreamingResult)
    assert streamed.makespan == fast.makespan
    assert streamed.time_imbalance == fast.time_imbalance
    assert streamed.total_cost == pytest.approx(fast.total_cost, rel=1e-12)


@pytest.mark.parametrize("facade", ["fast", "stream"])
def test_multi_pe_fleet_is_rejected(facade):
    spec = homogeneous_scenario(4, 20, seed=0)
    spec = dataclasses.replace(
        spec, vms=tuple(dataclasses.replace(vm, pes=2) for vm in spec.vms)
    )
    if facade == "fast":
        simulation = FastSimulation(spec, make_scheduler("basetest"))
    else:
        simulation = StreamingSimulation(
            ScenarioChunks.from_spec(spec, chunk_size=8),
            make_streaming_scheduler("basetest"),
        )
    with pytest.raises(ValueError, match="single-PE.*CloudSimulation"):
        simulation.run()


class _RecordingScheduler(Scheduler):
    """Round-robin that keeps the context columns it was handed."""

    name = "recording"

    def __init__(self) -> None:
        self.seen = []

    def schedule(self, context):
        self.seen.append(context.arrays)
        result = make_scheduler("basetest").schedule(context)
        return dataclasses.replace(result, scheduler_name=self.name)


@pytest.mark.parametrize("chunk_size", [None, 64])
def test_fallback_schedules_over_the_streams_own_columns(monkeypatch, spec, chunk_size):
    def to_spec(self):
        raise AssertionError("InMemoryFallback.open materialised a ScenarioSpec")

    monkeypatch.setattr(ScenarioChunks, "to_spec", to_spec)
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size or NUM_CLOUDLETS)
    inner = _RecordingScheduler()
    assigner = InMemoryFallback(inner).open(stream, spawn_rng(SEED, stream.name))
    (arrays,) = inner.seen
    own = spec.arrays()
    for field in ("cloudlet_length", "cloudlet_pes", "cloudlet_file_size",
                  "cloudlet_output_size"):
        np.testing.assert_array_equal(getattr(arrays, field), getattr(own, field))
        # One chunk: the stream's own columns; several: one concatenation.
        shared = np.shares_memory(getattr(arrays, field), getattr(own, field))
        assert shared == (chunk_size is None), field
    assert arrays.vm_mips is own.vm_mips
    assert assigner.assign(arrays, 0).tolist() == [
        i % NUM_VMS for i in range(NUM_CLOUDLETS)
    ]
