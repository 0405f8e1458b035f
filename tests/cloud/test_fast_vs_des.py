"""Cross-validation: the analytic fast path must match the DES engine.

This is the property that justifies using :class:`FastSimulation` for the
paper's huge homogeneous sweeps (DESIGN.md §2).  The exactness test pins
it tighter still: a fast run *is* the scheduler's batch decision composed
with the FIFO closed form and the shared pricing, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.fast import FastSimulation, grouped_fifo_times
from repro.cloud.simulation import CloudSimulation, cloudlet_costs
from repro.metrics import makespan, time_imbalance
from repro.obs.manifest import capture_manifest
from repro.schedulers import (
    SCHEDULER_REGISTRY,
    HoneyBeeScheduler,
    RandomBiasedSamplingScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.schedulers.base import SchedulingContext
from repro.schedulers.random_assign import RandomScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from tests.integration.test_golden_values import LIGHT_KWARGS


def assert_results_match(fast, des):
    np.testing.assert_array_equal(fast.assignment, des.assignment)
    np.testing.assert_allclose(fast.start_times, des.start_times, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(fast.finish_times, des.finish_times, rtol=1e-9, atol=1e-9)
    assert fast.makespan == pytest.approx(des.makespan)
    assert fast.time_imbalance == pytest.approx(des.time_imbalance)
    assert fast.total_cost == pytest.approx(des.total_cost)


class TestAgreement:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            RoundRobinScheduler,
            RandomScheduler,
            HoneyBeeScheduler,
            RandomBiasedSamplingScheduler,
        ],
    )
    def test_heterogeneous_agreement(self, scheduler_factory):
        scenario = heterogeneous_scenario(num_vms=8, num_cloudlets=40, seed=3)
        fast = FastSimulation(scenario, scheduler_factory(), seed=3).run()
        des = CloudSimulation(scenario, scheduler_factory(), seed=3).run()
        assert_results_match(fast, des)

    def test_homogeneous_agreement(self):
        scenario = homogeneous_scenario(num_vms=7, num_cloudlets=30, seed=1)
        fast = FastSimulation(scenario, RoundRobinScheduler(), seed=1).run()
        des = CloudSimulation(scenario, RoundRobinScheduler(), seed=1).run()
        assert_results_match(fast, des)

    @settings(max_examples=25, deadline=None)
    @given(
        num_vms=st.integers(min_value=1, max_value=12),
        num_cloudlets=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_random_assignments_agree(self, num_vms, num_cloudlets, seed):
        scenario = heterogeneous_scenario(
            num_vms=num_vms,
            num_cloudlets=num_cloudlets,
            num_datacenters=min(2, num_vms),
            seed=seed,
        )
        fast = FastSimulation(scenario, RandomScheduler(), seed=seed).run()
        des = CloudSimulation(scenario, RandomScheduler(), seed=seed).run()
        assert_results_match(fast, des)


class TestGroupedFifo:
    def test_single_vm_prefix_sums(self):
        start, finish = grouped_fifo_times(
            np.zeros(3, dtype=np.int64), np.array([1.0, 2.0, 3.0]), num_vms=1
        )
        np.testing.assert_allclose(start, [0.0, 1.0, 3.0])
        np.testing.assert_allclose(finish, [1.0, 3.0, 6.0])

    def test_two_vms_independent(self):
        assignment = np.array([0, 1, 0, 1], dtype=np.int64)
        exec_times = np.array([1.0, 10.0, 2.0, 20.0])
        start, finish = grouped_fifo_times(assignment, exec_times, num_vms=2)
        np.testing.assert_allclose(start, [0.0, 0.0, 1.0, 10.0])
        np.testing.assert_allclose(finish, [1.0, 10.0, 3.0, 30.0])

    def test_unused_vms_are_fine(self):
        start, finish = grouped_fifo_times(
            np.array([5], dtype=np.int64), np.array([2.0]), num_vms=10
        )
        np.testing.assert_allclose(finish, [2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            grouped_fifo_times(np.array([0, 1]), np.array([1.0]), num_vms=2)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.01, max_value=100.0),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_property_matches_naive_per_vm_cumsum(self, pairs):
        assignment = np.array([p[0] for p in pairs], dtype=np.int64)
        exec_times = np.array([p[1] for p in pairs])
        start, finish = grouped_fifo_times(assignment, exec_times, num_vms=6)
        clock = {}
        for i, (vm, ex) in enumerate(pairs):
            t0 = clock.get(vm, 0.0)
            assert start[i] == pytest.approx(t0, rel=1e-9, abs=1e-9)
            assert finish[i] == pytest.approx(t0 + ex, rel=1e-9, abs=1e-9)
            clock[vm] = finish[i]


#: the golden-value cells (tests/integration/test_golden_values.py).
GOLDEN_CELLS = {
    "hetero": lambda: heterogeneous_scenario(10, 80, seed=123),
    "homog": lambda: homogeneous_scenario(8, 50, seed=123),
}


def _without_wall_clock(value):
    """``value`` minus every convergence trace's wall-clock seconds."""
    if isinstance(value, dict):
        return {
            k: _without_wall_clock(v) for k, v in value.items() if k != "wall_clock_s"
        }
    return value


class TestExactness:
    @pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
    @pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
    def test_run_is_batch_decision_plus_closed_form(self, cell, name):
        scenario = GOLDEN_CELLS[cell]()
        scheduler = make_scheduler(name, **LIGHT_KWARGS.get(name, {}))
        result = FastSimulation(scenario, scheduler, seed=123).run()

        context = SchedulingContext.from_scenario(scenario, seed=123)
        decision = make_scheduler(name, **LIGHT_KWARGS.get(name, {})).schedule_checked(
            context
        )
        arrays = context.arrays
        assignment = decision.assignment
        exec_times = arrays.cloudlet_length / arrays.vm_mips[assignment]
        start, finish = grouped_fifo_times(assignment, exec_times, arrays.num_vms)
        costs = cloudlet_costs(arrays, assignment)
        expected = {
            "assignment": assignment,
            "submission_times": np.zeros_like(start),
            "start_times": start,
            "finish_times": finish,
            "exec_times": finish - start,
            "costs": costs,
        }
        for field, want in expected.items():
            got = getattr(result, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        assert result.makespan == makespan(start, finish)
        assert result.time_imbalance == time_imbalance(finish - start)
        assert result.total_cost == float(costs.sum())
        assert result.events_processed == 0
        assert result.scheduling_time > 0
        assert result.scheduler_name == decision.scheduler_name == name

        manifest = capture_manifest(
            scenario=scenario, scheduler=scheduler, seed=123, engine="fast",
            execution_model="space-shared",
        )
        assert _without_wall_clock(result.info) == _without_wall_clock(
            {
                "engine": "fast",
                "execution_model": "space-shared",
                "manifest": manifest.to_dict(),
                **decision.info,
            }
        )
