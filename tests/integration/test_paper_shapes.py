"""Small-scale end-to-end reproductions of the paper's qualitative claims.

These run the full pipeline (generator → scheduler → DES/fast engine →
metrics) at sizes small enough for CI but large enough for the orderings to
be stable.  The full sweeps live in ``benchmarks/`` and
``python -m repro.experiments``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cloud.fast import FastSimulation
from repro.cloud.simulation import CloudSimulation, timed_schedule
from repro.schedulers import (
    AntColonyScheduler,
    HoneyBeeScheduler,
    RandomBiasedSamplingScheduler,
    RoundRobinScheduler,
)
from repro.schedulers.base import SchedulingContext
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario

#: Batch decisions timed per scheduler.  The timing guards compare the
#: medians, so one slow moment of a shared host cannot flip an ordering.
TIMED_DECISIONS = 5

#: Sleep added to one scheduler's decision in the guards' positive
#: controls: several times the slowest decision the guards time.
SLOWDOWN_S = 0.2


def median_scheduling_times(scenario, schedulers) -> dict[str, float]:
    """Median wall clock of ``TIMED_DECISIONS`` batch decisions per scheduler.

    Each sample is the decision the simulations time (``timed_schedule``
    on a fresh context).  The rounds interleave the schedulers, so a slow
    stretch of the host costs each of them one sample, not one of them
    every sample.
    """
    samples: dict[str, list[float]] = {name: [] for name in schedulers}
    for _ in range(TIMED_DECISIONS):
        for name, scheduler in schedulers.items():
            context = SchedulingContext.from_scenario(scenario, seed=0)
            samples[name].append(timed_schedule(scheduler, context)[1])
    return {name: float(np.median(values)) for name, values in samples.items()}


class SlowedBaseTest(RoundRobinScheduler):
    """Base Test that sleeps ``SLOWDOWN_S`` before each decision."""

    def schedule(self, context):
        time.sleep(SLOWDOWN_S)
        return super().schedule(context)


def with_slowed_base_test(scenario, times: dict[str, float]) -> dict[str, float]:
    """``times`` with basetest re-timed as :class:`SlowedBaseTest`."""
    slowed = median_scheduling_times(scenario, {"basetest": SlowedBaseTest()})
    return {**times, **slowed}


def hetero_point():
    """One mid-sweep heterogeneous point (paper regime: cloudlets >> VMs)."""
    scenario = heterogeneous_scenario(num_vms=40, num_cloudlets=400, seed=0)
    schedulers = {
        "antcolony": AntColonyScheduler(num_ants=20, max_iterations=3),
        "basetest": RoundRobinScheduler(),
        "honeybee": HoneyBeeScheduler(),
        "rbs": RandomBiasedSamplingScheduler(),
    }
    return scenario, schedulers


@pytest.fixture(scope="module")
def hetero_results():
    scenario, schedulers = hetero_point()
    return {
        name: CloudSimulation(scenario, sched, seed=0).run()
        for name, sched in schedulers.items()
    }


@pytest.fixture(scope="module")
def hetero_times():
    return median_scheduling_times(*hetero_point())


def assert_fig6b_ordering(times: dict[str, float]) -> None:
    assert times["basetest"] < times["rbs"] < times["honeybee"] < times["antcolony"]


def assert_base_test_fastest(times: dict[str, float]) -> None:
    for name, seconds in times.items():
        if name != "basetest":
            assert seconds > times["basetest"], name


class TestHeterogeneousShapes:
    def test_fig6a_aco_has_best_makespan(self, hetero_results):
        makespans = {k: r.makespan for k, r in hetero_results.items()}
        assert makespans["antcolony"] == min(makespans.values())

    def test_fig6a_hbo_beats_basetest(self, hetero_results):
        assert hetero_results["honeybee"].makespan < hetero_results["basetest"].makespan

    def test_fig6b_scheduling_time_ordering(self, hetero_times):
        assert_fig6b_ordering(hetero_times)

    def test_fig6b_guard_fails_on_a_slowed_scheduler(self, hetero_times):
        slowed = with_slowed_base_test(hetero_point()[0], hetero_times)
        with pytest.raises(AssertionError):
            assert_fig6b_ordering(slowed)

    def test_fig6c_aco_imbalance_above_spreading_policies(self, hetero_results):
        imb = {k: r.time_imbalance for k, r in hetero_results.items()}
        assert imb["antcolony"] > imb["basetest"]
        assert imb["antcolony"] > imb["rbs"]

    def test_fig6d_hbo_has_lowest_cost(self, hetero_results):
        costs = {k: r.total_cost for k, r in hetero_results.items()}
        assert costs["honeybee"] == min(costs.values())

    def test_fig6d_non_hbo_costs_clustered(self, hetero_results):
        costs = [
            r.total_cost for k, r in hetero_results.items() if k != "honeybee"
        ]
        assert max(costs) / min(costs) < 1.15


def homog_point():
    scenario = homogeneous_scenario(num_vms=25, num_cloudlets=500, seed=0)
    schedulers = {
        "antcolony": AntColonyScheduler(num_ants=5, max_iterations=2, tabu="pass"),
        "basetest": RoundRobinScheduler(),
        "honeybee": HoneyBeeScheduler(),
        "rbs": RandomBiasedSamplingScheduler(),
    }
    return scenario, schedulers


class TestHomogeneousShapes:
    @pytest.fixture(scope="class")
    def homog_results(self):
        scenario, schedulers = homog_point()
        return {
            name: FastSimulation(scenario, sched, seed=0).run()
            for name, sched in schedulers.items()
        }

    @pytest.fixture(scope="class")
    def homog_times(self):
        return median_scheduling_times(*homog_point())

    def test_fig4_all_converge_to_base_test(self, homog_results):
        base = homog_results["basetest"].makespan
        # 500 cloudlets / 25 VMs = 20 each x 0.25 s.
        assert base == pytest.approx(5.0)
        for name, result in homog_results.items():
            assert result.makespan <= base * 1.1, name

    def test_fig4_imbalance_zero_in_homogeneous(self, homog_results):
        for result in homog_results.values():
            assert result.time_imbalance == pytest.approx(0.0, abs=1e-9)

    def test_fig5_base_test_schedules_fastest(self, homog_times):
        assert_base_test_fastest(homog_times)

    def test_fig5_guard_fails_on_a_slowed_base_test(self, homog_times):
        slowed = with_slowed_base_test(homog_point()[0], homog_times)
        with pytest.raises(AssertionError):
            assert_base_test_fastest(slowed)

    def test_makespan_decreases_with_fleet_size(self):
        mks = []
        for num_vms in (10, 20, 40):
            scenario = homogeneous_scenario(num_vms=num_vms, num_cloudlets=400, seed=0)
            mks.append(
                FastSimulation(scenario, RoundRobinScheduler(), seed=0).run().makespan
            )
        assert mks[0] > mks[1] > mks[2]


class TestCrossEngineConsistency:
    def test_paper_metrics_identical_across_engines(self):
        scenario = heterogeneous_scenario(num_vms=15, num_cloudlets=120, seed=2)
        for sched_factory in (RoundRobinScheduler, HoneyBeeScheduler):
            fast = FastSimulation(scenario, sched_factory(), seed=2).run()
            des = CloudSimulation(scenario, sched_factory(), seed=2).run()
            assert fast.makespan == pytest.approx(des.makespan)
            assert fast.time_imbalance == pytest.approx(des.time_imbalance)
            assert fast.total_cost == pytest.approx(des.total_cost)

    def test_datacenter_cost_accounting_matches_metric(self):
        from repro.cloud.broker import DatacenterBroker  # noqa: F401  (docs)

        scenario = heterogeneous_scenario(num_vms=10, num_cloudlets=80, seed=3)
        sim = CloudSimulation(scenario, RoundRobinScheduler(), seed=3)
        result = sim.run()
        assert result.total_cost == pytest.approx(result.costs.sum())
        assert (result.costs > 0).all()
