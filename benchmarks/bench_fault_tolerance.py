"""Extension benchmarks — resilience under VM failures.

Measures makespan degradation and retry volume as VMs are killed
mid-batch, comparing blind round-robin recovery against failure-aware
rescheduling, plus a seeded chaos-suite smoke.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_result
from repro.cloud.chaos import ChaosConfig, run_chaos_suite
from repro.cloud.faults import VmFailure
from repro.cloud.resilience import ImmediateRetry, run_resilient
from repro.cloud.simulation import CloudSimulation
from repro.schedulers import GreedyMinCompletionScheduler, RoundRobinScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario

NUM_VMS = 20
NUM_CLOUDLETS = 300


@pytest.mark.parametrize("num_failures", [0, 1, 4, 8])
def test_failure_cascade_degradation(benchmark, num_failures):
    scenario = heterogeneous_scenario(NUM_VMS, NUM_CLOUDLETS, seed=0)
    failures = [VmFailure(i, at_time=2.0 + i) for i in range(num_failures)]

    def run():
        return run_resilient(
            scenario, RoundRobinScheduler(), failures, seed=0, recovery="round_robin"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(benchmark, result)
    benchmark.extra_info["num_failures"] = num_failures
    benchmark.extra_info["retries"] = result.info["retries"]
    assert result.num_cloudlets == NUM_CLOUDLETS


@pytest.mark.parametrize("scheduler_factory", [RoundRobinScheduler, GreedyMinCompletionScheduler])
def test_failure_recovery_per_scheduler(benchmark, scheduler_factory):
    scenario = heterogeneous_scenario(NUM_VMS, NUM_CLOUDLETS, seed=0)
    failures = [VmFailure(0, at_time=3.0), VmFailure(7, at_time=6.0)]

    def run():
        return run_resilient(
            scenario, scheduler_factory(), failures, seed=0, recovery="round_robin"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(benchmark, result)
    benchmark.extra_info["retries"] = result.info["retries"]


@pytest.mark.parametrize("recovery", ["round-robin", "rescheduling"])
def test_recovery_strategy_degradation(benchmark, recovery):
    """Blind RR resubmission vs re-invoking the scheduler over survivors."""
    scenario = heterogeneous_scenario(NUM_VMS, NUM_CLOUDLETS, seed=5)
    scheduler = GreedyMinCompletionScheduler()
    baseline = CloudSimulation(scenario, scheduler, seed=5).run()
    failures = [VmFailure(0, at_time=2.0), VmFailure(4, at_time=3.0)]

    def run():
        if recovery == "round-robin":
            return run_resilient(
                scenario, scheduler, failures, seed=5, recovery="round_robin"
            )
        return run_resilient(
            scenario, scheduler, failures, seed=5,
            retry_policy=ImmediateRetry(max_attempts=8),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(benchmark, result)
    benchmark.extra_info["recovery"] = recovery
    benchmark.extra_info["degradation"] = result.makespan / baseline.makespan
    benchmark.extra_info["retries"] = result.info["retries"]


def test_chaos_suite_smoke(benchmark):
    """Seeded crash+straggler chaos plan across both recovery strategies."""
    scenario = heterogeneous_scenario(12, 150, seed=0)
    config = ChaosConfig(num_vm_failures=2, num_stragglers=1, recover_fraction=0.5)

    def run():
        return run_chaos_suite(
            scenario,
            {"greedy": GreedyMinCompletionScheduler()},
            seeds=(0,),
            config=config,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    cell = report.cells[0]
    assert cell.rescheduling_recovery.completed_fraction == 1.0
    benchmark.extra_info["rr_degradation"] = cell.round_robin_recovery.makespan_degradation
    benchmark.extra_info["resched_degradation"] = (
        cell.rescheduling_recovery.makespan_degradation
    )
    benchmark.extra_info["mttr"] = cell.rescheduling_recovery.mttr
