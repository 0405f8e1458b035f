"""Metric formulas (paper Eq. 12, Eq. 13, Section VI-C4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.definitions import (
    average_waiting_time,
    makespan,
    processing_cost,
    throughput,
    time_imbalance,
)

positive_times = st.lists(
    st.floats(min_value=0.01, max_value=1e5), min_size=1, max_size=100
)


class TestMakespan:
    def test_formula(self):
        assert makespan([1.0, 2.0], [5.0, 9.0]) == 8.0

    def test_single_cloudlet(self):
        assert makespan([2.0], [7.0]) == 5.0

    def test_finish_before_start_rejected(self):
        with pytest.raises(ValueError, match="finish"):
            makespan([5.0], [4.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            makespan([1.0], [2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            makespan([], [])

    @given(positive_times)
    def test_nonnegative_property(self, execs):
        starts = np.zeros(len(execs))
        finishes = np.array(execs)
        assert makespan(starts, finishes) >= 0
        assert makespan(starts, finishes) == pytest.approx(max(execs))


class TestTimeImbalance:
    def test_formula(self):
        # (4 - 1) / 2.5
        assert time_imbalance([1.0, 4.0]) == pytest.approx(1.2)

    def test_uniform_times_give_zero(self):
        assert time_imbalance([3.0, 3.0, 3.0]) == 0.0

    def test_single_task_gives_zero(self):
        assert time_imbalance([5.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            time_imbalance([-1.0, 1.0])

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            time_imbalance([0.0, 0.0])

    @given(positive_times)
    def test_invariants(self, times):
        value = time_imbalance(times)
        assert value >= 0
        n = len(times)
        # (max-min)/avg is at most n * (max-min)/ (n*min+... ) <= max/avg <= n
        assert value <= n


class TestProcessingCost:
    def test_componentwise(self):
        costs = processing_cost(
            lengths=[2000.0],
            vm_mips=[1000.0],
            vm_ram=[512.0],
            vm_size=[5000.0],
            file_sizes=[300.0],
            output_sizes=[300.0],
            cost_per_cpu=[3.0],
            cost_per_mem=[0.05],
            cost_per_storage=[0.001],
            cost_per_bw=[0.01],
        )
        assert costs[0] == pytest.approx(6.0 + 25.6 + 5.0 + 6.0)

    def test_zero_mips_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            processing_cost(
                [1.0], [0.0], [0.0], [0.0], [0.0], [0.0], [1.0], [0.0], [0.0], [0.0]
            )


class TestWaitingAndThroughput:
    def test_average_waiting_time(self):
        assert average_waiting_time([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_start_before_submission_rejected(self):
        with pytest.raises(ValueError):
            average_waiting_time([5.0], [1.0])

    def test_throughput_default_horizon(self):
        assert throughput([1.0, 2.0, 4.0]) == pytest.approx(0.75)

    def test_throughput_explicit_horizon(self):
        assert throughput([1.0, 2.0], horizon=10.0) == pytest.approx(0.2)

    def test_throughput_bad_horizon(self):
        with pytest.raises(ValueError):
            throughput([1.0], horizon=0.0)


class TestJainFairness:
    def test_perfect_balance_is_one(self):
        from repro.metrics.definitions import jain_fairness_index

        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_loaded_vm_is_one_over_n(self):
        from repro.metrics.definitions import jain_fairness_index

        assert jain_fairness_index([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_bounds(self):
        from repro.metrics.definitions import jain_fairness_index

        for loads in ([1.0, 5.0], [2.0, 2.0, 8.0, 1.0]):
            j = jain_fairness_index(loads)
            assert 1 / len(loads) <= j <= 1.0

    def test_validation(self):
        from repro.metrics.definitions import jain_fairness_index

        with pytest.raises(ValueError):
            jain_fairness_index([-1.0, 1.0])
        with pytest.raises(ValueError):
            jain_fairness_index([0.0, 0.0])

    @given(positive_times)
    def test_property_scale_invariant(self, loads):
        from repro.metrics.definitions import jain_fairness_index

        a = jain_fairness_index(loads)
        b = jain_fairness_index([x * 7.5 for x in loads])
        assert a == pytest.approx(b)
