"""Scheduler framework: context, result validation, estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedulers.base import (
    SchedulingContext,
    SchedulingResult,
    validate_assignment,
)
from tests.schedulers.oracles import estimate_makespan, estimated_vm_finish_times
from repro.schedulers.round_robin import RoundRobinScheduler


class TestContext:
    def test_from_scenario_sizes(self, tiny_scenario):
        ctx = SchedulingContext.from_scenario(tiny_scenario, seed=0)
        assert ctx.num_cloudlets == 8
        assert ctx.num_vms == 4
        assert ctx.num_datacenters == 2
        assert ctx.scenario_name == "tiny"

    def test_rng_is_deterministic_per_seed(self, tiny_scenario):
        a = SchedulingContext.from_scenario(tiny_scenario, seed=5).rng.random(10)
        b = SchedulingContext.from_scenario(tiny_scenario, seed=5).rng.random(10)
        np.testing.assert_array_equal(a, b)

    def test_exec_matrix_matches_rows(self, tiny_context):
        matrix = tiny_context.exec_time_matrix()
        for i in range(tiny_context.num_cloudlets):
            np.testing.assert_allclose(matrix[i], tiny_context.expected_exec_time(i))

    def test_exec_time_formula(self, tiny_context):
        arr = tiny_context.arrays
        row = tiny_context.expected_exec_time(0)
        expected = arr.cloudlet_length[0] / (arr.vm_pes * arr.vm_mips) + (
            arr.cloudlet_file_size[0] / arr.vm_bw
        )
        np.testing.assert_allclose(row, expected)


class TestValidateAssignment:
    def test_valid_passes(self):
        validate_assignment(np.array([0, 1, 2]), num_cloudlets=3, num_vms=3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            validate_assignment(np.array([0, 1]), num_cloudlets=3, num_vms=3)

    def test_float_dtype_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            validate_assignment(np.array([0.0, 1.0]), num_cloudlets=2, num_vms=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="in \\[0"):
            validate_assignment(np.array([0, 5]), num_cloudlets=2, num_vms=2)
        with pytest.raises(ValueError):
            validate_assignment(np.array([-1, 0]), num_cloudlets=2, num_vms=2)


class TestSchedulingResult:
    def test_coerces_to_int64(self):
        r = SchedulingResult(assignment=[0, 1, 0], scheduler_name="x")
        assert r.assignment.dtype == np.int64

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SchedulingResult(assignment=np.zeros((2, 2), dtype=int), scheduler_name="x")


class TestScheduleChecked:
    def test_checked_passes_for_round_robin(self, tiny_context):
        result = RoundRobinScheduler().schedule_checked(tiny_context)
        assert result.scheduler_name == "basetest"

    def test_checked_rejects_mislabeled(self, tiny_context):
        class Liar(RoundRobinScheduler):
            def schedule(self, context):
                r = super().schedule(context)
                r.scheduler_name = "someone-else"
                return r

        with pytest.raises(ValueError, match="labelled"):
            Liar().schedule_checked(tiny_context)


class TestEstimators:
    def test_estimated_vm_finish_times(self):
        totals = estimated_vm_finish_times(
            np.array([0, 0, 1]), np.array([1.0, 2.0, 5.0]), num_vms=3
        )
        np.testing.assert_allclose(totals, [3.0, 5.0, 0.0])

    def test_estimate_makespan_single_pe(self):
        mk = estimate_makespan(
            np.array([0, 1, 1]),
            lengths=np.array([100.0, 100.0, 300.0]),
            vm_mips=np.array([100.0, 200.0]),
        )
        assert mk == pytest.approx(2.0)  # vm1: 400/200

    def test_estimate_makespan_respects_pes(self):
        mk = estimate_makespan(
            np.array([0, 0]),
            lengths=np.array([100.0, 100.0]),
            vm_mips=np.array([100.0]),
            vm_pes=np.array([2]),
        )
        assert mk == pytest.approx(1.0)

    def test_bincount_accumulation_equals_add_at_reference(self):
        """The bincount fast path must match np.add.at bit for bit.

        Both sum weights left-to-right per bucket, so the refactor from
        buffered fancy-index accumulation pins exact equality — any
        reordering of the summation would break golden-seed metrics.
        """
        rng = np.random.default_rng(42)
        for num_vms in (1, 3, 17):
            assignment = rng.integers(0, num_vms, size=500)
            exec_times = rng.uniform(0.1, 1e6, size=500)
            reference = np.zeros(num_vms)
            np.add.at(reference, assignment, exec_times)
            np.testing.assert_array_equal(
                estimated_vm_finish_times(assignment, exec_times, num_vms), reference
            )
            mips = rng.uniform(100.0, 5000.0, size=num_vms)
            assert estimate_makespan(assignment, exec_times, mips) == (
                reference / mips
            ).max()

    def test_estimated_vm_finish_times_empty_vm_stays_zero(self):
        totals = estimated_vm_finish_times(
            np.array([2, 2]), np.array([1.0, 2.0]), num_vms=5
        )
        np.testing.assert_array_equal(totals, [0.0, 0.0, 3.0, 0.0, 0.0])
