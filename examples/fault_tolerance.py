#!/usr/bin/env python3
"""Failure injection: how the batch survives VMs dying mid-run.

Kills an escalating number of VMs partway through a heterogeneous batch and
reports how blind round-robin recovery (``run_resilient`` with
``recovery="round_robin"``) absorbs the damage: makespan degradation, retry
volume and the waiting-time cost of recovery.

Run with::

    python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.cloud.chaos import ChaosConfig, run_chaos_suite
from repro.cloud.faults import VmFailure, VmSlowdown
from repro.cloud.resilience import ExponentialBackoffRetry, ImmediateRetry, run_resilient
from repro.cloud.simulation import CloudSimulation
from repro.schedulers import GreedyMinCompletionScheduler, RoundRobinScheduler
from repro.workloads import heterogeneous_scenario

NUM_VMS = 20
NUM_CLOUDLETS = 300
SEED = 3


def main() -> None:
    scenario = heterogeneous_scenario(NUM_VMS, NUM_CLOUDLETS, seed=SEED)
    baseline = CloudSimulation(scenario, RoundRobinScheduler(), seed=SEED).run()
    print(
        f"Baseline (no failures): makespan {baseline.makespan:.1f}s, "
        f"mean wait {baseline.average_waiting_time:.1f}s\n"
    )

    rows = []
    for num_failures in (1, 2, 4, 8):
        failures = [
            VmFailure(vm_index=i, at_time=3.0 + 2.0 * i) for i in range(num_failures)
        ]
        result = run_resilient(
            scenario, RoundRobinScheduler(), failures, seed=SEED, recovery="round_robin"
        )
        rows.append(
            {
                "failed_vms": num_failures,
                "makespan_s": result.makespan,
                "vs_baseline": result.makespan / baseline.makespan,
                "retries": result.info["retries"],
                "mean_wait_s": result.average_waiting_time,
            }
        )
    print("== Round-robin recovery under escalating failures ==")
    print(format_table(rows, float_format="{:.2f}"))

    print("\n== Scheduler choice matters for blast radius ==")
    failures = [VmFailure(0, at_time=3.0), VmFailure(7, at_time=6.0)]
    rows = []
    for scheduler in (RoundRobinScheduler(), GreedyMinCompletionScheduler()):
        result = run_resilient(
            scenario, scheduler, failures, seed=SEED, recovery="round_robin"
        )
        rows.append(
            {
                "scheduler": result.scheduler_name,
                "makespan_s": result.makespan,
                "retries": result.info["retries"],
            }
        )
    print(format_table(rows, float_format="{:.2f}"))
    print(
        "\nGreedy concentrates work on fast VMs, so losing one bounces more"
        "\ncloudlets — resilience and packing efficiency trade off."
    )

    print("\n== Recovery strategy: blind round-robin vs rescheduling ==")
    scheduler = GreedyMinCompletionScheduler()
    baseline = CloudSimulation(scenario, scheduler, seed=SEED).run()
    failures = [VmFailure(0, at_time=2.0), VmFailure(7, at_time=4.0)]
    blind = run_resilient(
        scenario, scheduler, failures, seed=SEED, recovery="round_robin"
    )
    smart = run_resilient(
        scenario, scheduler, failures, seed=SEED,
        retry_policy=ImmediateRetry(max_attempts=8),
    )
    rows = [
        {
            "recovery": name,
            "makespan_s": r.makespan,
            "degradation": r.makespan / baseline.makespan,
            "retries": r.info["retries"],
            "lost_mi": r.info["lost_mi"],
        }
        for name, r in (("round-robin", blind), ("rescheduling", smart))
    ]
    print(format_table(rows, float_format="{:.2f}"))
    print(
        "\nRescheduling re-invokes the batch scheduler over the survivors, so"
        "\nbounced work lands by completion time instead of by rotation."
    )

    print("\n== Stragglers: speculation cancels the hostage cloudlets ==")
    straggle = [VmSlowdown(3, at_time=1.0, duration=1e4, factor=0.05)]
    hostage = run_resilient(scenario, scheduler, straggle, seed=SEED)
    rescued = run_resilient(
        scenario, scheduler, straggle, seed=SEED,
        retry_policy=ImmediateRetry(max_attempts=10),
        speculation_multiple=3.0,
    )
    rows = [
        {
            "speculation": label,
            "makespan_s": r.makespan,
            "cancels": r.info["speculative_cancels"],
        }
        for label, r in (("off", hostage), ("3x expected", rescued))
    ]
    print(format_table(rows, float_format="{:.2f}"))

    print("\n== Seeded chaos suite: crash + straggler across schedulers ==")
    report = run_chaos_suite(
        scenario,
        {"round-robin": RoundRobinScheduler(), "greedy": GreedyMinCompletionScheduler()},
        seeds=(0, 1),
        config=ChaosConfig(num_vm_failures=1, num_stragglers=1, recover_fraction=1.0),
        retry_policy=ExponentialBackoffRetry(max_attempts=6),
    )
    print(format_table(report.to_rows(), float_format="{:.2f}"))
    print("\nMean makespan degradation (rescheduling recovery):")
    for name, ratio in report.mean_degradation("rescheduling").items():
        print(f"  {name:12s} {ratio:.3f}x")


if __name__ == "__main__":
    main()
