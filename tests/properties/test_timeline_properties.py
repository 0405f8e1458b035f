"""Property-based determinism suite for timelines and controlled runs.

The dynamic-scenario path's safety case:

* **Compile determinism** — ``Timeline.compile`` is a pure function of
  ``(timeline, seed)``: fault plans compare equal and arrival processes
  sample bit-identically across compilations.
* **Run determinism** — a controlled online run (timeline + MAPE-K loop)
  is bit-identical across repetitions: assignments, finish times and the
  loop's action ledger.
* **Null dynamics** — passing ``OnlineCloudSimulation``'s timeline,
  control and standby defaults explicitly reproduces the plain online run
  byte-for-byte.

All properties run derandomised (fixed example set per test) so CI
failures reproduce locally byte-for-byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.control import ControlConfig
from repro.cloud.online import OnlineCloudSimulation
from repro.schedulers.online import OnlineGreedyMCT
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.timeline import (
    Burst,
    RateChange,
    Timeline,
    VmFault,
)

COMMON = settings(max_examples=25, deadline=None, derandomize=True)
#: end-to-end DES runs are ~10ms each; keep the example budget modest.
SLOW = settings(max_examples=8, deadline=None, derandomize=True)

NUM_VMS = 4


@st.composite
def timelines(draw) -> Timeline:
    """Small valid timelines: steps + an optional burst + recovering faults."""
    entries: list = []
    for t in sorted(draw(st.lists(st.integers(1, 30), unique=True, max_size=3))):
        rate = draw(st.floats(1.0, 25.0, allow_nan=False, allow_infinity=False))
        entries.append(RateChange(at=float(t), rate=rate))
    if draw(st.booleans()):
        entries.append(
            Burst(
                at=float(draw(st.integers(1, 20))),
                count=draw(st.integers(1, 15)),
            )
        )
    for vm in draw(st.lists(st.integers(0, NUM_VMS - 1), unique=True, max_size=2)):
        entries.append(
            VmFault(
                at=float(draw(st.integers(1, 10))),
                vm_index=vm,
                downtime=float(draw(st.integers(2, 8))),
            )
        )
    base_rate = draw(st.floats(2.0, 20.0, allow_nan=False, allow_infinity=False))
    return Timeline(base_rate=base_rate, entries=tuple(entries), name="prop")


@given(timeline=timelines(), seed=st.integers(0, 2**20))
@COMMON
def test_compile_is_pure(timeline: Timeline, seed: int):
    a = timeline.compile(NUM_VMS, seed=seed)
    b = timeline.compile(NUM_VMS, seed=seed)
    assert a.fault_plan == b.fault_plan
    assert a.triggers == b.triggers
    np.testing.assert_array_equal(
        a.arrivals.sample(np.random.default_rng(0), 64),
        b.arrivals.sample(np.random.default_rng(0), 64),
    )


@given(timeline=timelines(), seed=st.integers(0, 1000))
@SLOW
def test_controlled_run_is_bit_identical(timeline: Timeline, seed: int):
    scenario = heterogeneous_scenario(NUM_VMS, 12, seed=2)
    control = ControlConfig(
        cadence=0.5,
        cooldown=1.0,
        imbalance_threshold=2.0,
        scale_up_backlog=1.0,
        standby_vms=1,
    )

    def run():
        return OnlineCloudSimulation(
            scenario, OnlineGreedyMCT(), seed=seed,
            timeline=timeline, control=control,
        ).run()

    a, b = run(), run()
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.submission_times, b.submission_times)
    np.testing.assert_array_equal(a.start_times, b.start_times)
    np.testing.assert_array_equal(a.finish_times, b.finish_times)
    assert a.makespan == b.makespan
    assert a.info["control"] == b.info["control"]


def test_null_dynamics_reproduce_plain_run():
    scenario = heterogeneous_scenario(NUM_VMS, 12, seed=2)
    plain = OnlineCloudSimulation(scenario, OnlineGreedyMCT(), seed=0).run()
    explicit = OnlineCloudSimulation(
        scenario, OnlineGreedyMCT(), seed=0,
        timeline=None, control=None, standby_vms=0,
    ).run()
    np.testing.assert_array_equal(plain.assignment, explicit.assignment)
    np.testing.assert_array_equal(plain.submission_times, explicit.submission_times)
    np.testing.assert_array_equal(plain.finish_times, explicit.finish_times)
    assert plain.makespan == explicit.makespan
    assert plain.info == explicit.info
