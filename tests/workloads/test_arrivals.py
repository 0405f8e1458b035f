"""Arrival processes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rng import spawn_rng
from repro.workloads.arrivals import (
    BatchArrivals,
    BurstyArrivals,
    PoissonArrivals,
)

ALL_PROCESSES = [
    BatchArrivals(),
    BatchArrivals(at=5.0),
    PoissonArrivals(rate=3.0),
    BurstyArrivals(burst_size=5, burst_rate=10.0, period=2.0),
]


class TestCommonProperties:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_non_decreasing_and_non_negative(self, process):
        times = process.sample(spawn_rng(1, "arr"), 50)
        assert times.shape == (50,)
        assert (times >= 0).all()
        assert (np.diff(times) >= -1e-12).all()

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_deterministic_given_rng(self, process):
        a = process.sample(spawn_rng(7, "arr"), 30)
        b = process.sample(spawn_rng(7, "arr"), 30)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_n_validated(self, process):
        with pytest.raises(ValueError):
            process.sample(spawn_rng(0, "arr"), 0)


class TestBatch:
    def test_all_at_instant(self):
        times = BatchArrivals(at=2.5).sample(spawn_rng(0, "a"), 10)
        assert (times == 2.5).all()

    def test_negative_instant_rejected(self):
        with pytest.raises(ValueError):
            BatchArrivals(at=-1.0)


class TestPoisson:
    def test_mean_rate_approx(self):
        times = PoissonArrivals(rate=10.0).sample(spawn_rng(3, "a"), 5000)
        measured_rate = 5000 / times[-1]
        assert measured_rate == pytest.approx(10.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)


class TestBursty:
    def test_bursts_cluster_within_periods(self):
        process = BurstyArrivals(burst_size=10, burst_rate=100.0, period=10.0)
        times = process.sample(spawn_rng(5, "a"), 30)
        # Three bursts; each burst's arrivals start after its period offset.
        assert times[0] >= 0.0
        assert times[10] >= 10.0
        assert times[20] >= 20.0

    def test_partial_last_burst(self):
        process = BurstyArrivals(burst_size=10, burst_rate=100.0, period=10.0)
        times = process.sample(spawn_rng(5, "a"), 13)
        assert times.shape == (13,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(burst_size=0, burst_rate=1.0, period=1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(burst_size=1, burst_rate=0.0, period=1.0)

    @given(
        n=st.integers(min_value=1, max_value=100),
        burst=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_property_sorted_output(self, n, burst, seed):
        process = BurstyArrivals(burst_size=burst, burst_rate=5.0, period=3.0)
        times = process.sample(spawn_rng(seed, "a"), n)
        assert (np.diff(times) >= -1e-12).all()
