"""Power models and batch energy accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.power import (
    PowerModelLinear,
    batch_energy,
    energy_of_result,
    vm_busy_times,
)
from repro.cloud.simulation import CloudSimulation
from repro.schedulers import RoundRobinScheduler


class TestPowerModels:
    def test_linear_endpoints(self):
        model = PowerModelLinear(idle_watts=100.0, peak_watts=250.0)
        assert model.power(0.0) == 100.0
        assert model.power(1.0) == 250.0
        assert model.power(0.5) == 175.0

    def test_out_of_range_utilization_rejected(self):
        with pytest.raises(ValueError):
            PowerModelLinear().power(1.5)

    def test_invalid_watts_rejected(self):
        with pytest.raises(ValueError):
            PowerModelLinear(idle_watts=300.0, peak_watts=100.0)
        with pytest.raises(ValueError):
            PowerModelLinear(idle_watts=-1.0, peak_watts=10.0)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=50))
    def test_power_array_matches_scalar(self, utils):
        model = PowerModelLinear()
        vectorised = model.power_array(np.array(utils))
        scalar = [model.power(u) for u in utils]
        np.testing.assert_allclose(vectorised, scalar)


class TestBatchEnergy:
    def test_busy_times(self, tiny_scenario):
        busy = vm_busy_times(
            tiny_scenario, np.array([0, 0, 1, 1, 2, 2, 3, 3]), np.ones(8)
        )
        np.testing.assert_allclose(busy, [2.0, 2.0, 2.0, 2.0])

    def test_energy_formula(self, tiny_scenario):
        assignment = np.zeros(8, dtype=np.int64)
        exec_times = np.ones(8)  # VM0 busy 8 s; other 3 idle for 8 s
        model = PowerModelLinear(idle_watts=100.0, peak_watts=200.0)
        energy = batch_energy(
            tiny_scenario, assignment, exec_times, makespan=8.0, power_model=model
        )
        # busy: 8 s * 200 W; idle: 3 VMs * 8 s * 100 W (VM0 has no idle).
        assert energy == pytest.approx(8 * 200 + 24 * 100)

    def test_energy_without_idle_fleet(self, tiny_scenario):
        assignment = np.zeros(8, dtype=np.int64)
        energy = batch_energy(
            tiny_scenario,
            assignment,
            np.ones(8),
            makespan=8.0,
            power_model=PowerModelLinear(100.0, 200.0),
            idle_fleet=False,
        )
        assert energy == pytest.approx(8 * 200)

    def test_busy_beyond_makespan_rejected(self, tiny_scenario):
        with pytest.raises(ValueError, match="busy"):
            batch_energy(tiny_scenario, np.zeros(8, dtype=np.int64), np.ones(8), makespan=1.0)

    def test_nonpositive_makespan_rejected(self, tiny_scenario):
        with pytest.raises(ValueError, match="makespan"):
            batch_energy(tiny_scenario, np.zeros(8, dtype=np.int64), np.ones(8), makespan=0.0)

    def test_energy_of_result_end_to_end(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        energy = energy_of_result(result, tiny_scenario)
        assert energy > 0
        # Lower bound: full fleet idling for the whole makespan.
        floor = tiny_scenario.num_vms * result.makespan * PowerModelLinear().power(0.0)
        assert energy >= floor
