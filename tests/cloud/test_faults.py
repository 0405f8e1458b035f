"""Fault injection and resilient recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cloudlet import CloudletStatus
from repro.cloud.faults import (
    FAULT_DELIVERY_PRIORITY,
    FaultInjector,
    HostFailure,
    VmFailure,
    VmSlowdown,
)
from repro.cloud.resilience import run_resilient
from repro.cloud.simulation import CloudSimulation
from repro.schedulers import RoundRobinScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario


class TestVmFailureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            VmFailure(vm_index=-1, at_time=0.0)
        with pytest.raises(ValueError):
            VmFailure(vm_index=0, at_time=-1.0)

    def test_injector_rejects_unknown_vm(self):
        with pytest.raises(ValueError, match="unknown vm"):
            FaultInjector("fi", [VmFailure(5, 1.0)], vm_entity={0: 0})

    def test_injector_requires_factory_for_recoveries(self):
        with pytest.raises(ValueError, match="vm_factory"):
            FaultInjector("fi", [VmFailure(0, 1.0, downtime=2.0)], vm_entity={0: 0})

    def test_fault_deliveries_preempt_normal_traffic(self):
        # The ordering contract rests on this constant: fault deliveries at a
        # given instant run before normal traffic (0) and wake-ups (+1).
        assert FAULT_DELIVERY_PRIORITY == -1

    def test_downtime_must_be_positive(self):
        with pytest.raises(ValueError, match="downtime"):
            VmFailure(0, 1.0, downtime=0.0)


class TestRunWithFailures:
    """Blind round-robin recovery: ``run_resilient(recovery="round_robin")``."""

    def test_all_cloudlets_still_finish(self):
        scenario = heterogeneous_scenario(8, 60, seed=1)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(0, at_time=5.0), VmFailure(3, at_time=10.0)],
            seed=1,
            recovery="round_robin",
        )
        assert result.num_cloudlets == 60
        assert (result.finish_times > 0).all()
        assert result.info["retries"] > 0
        assert result.info["failures"] == 2

    def test_homogeneous_failure_extends_makespan(self):
        # On identical VMs, losing one mid-batch strictly delays the work it
        # carried (no faster VM can absorb it for free).
        scenario = homogeneous_scenario(5, 100, seed=0)
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=0).run()
        faulty = run_resilient(
            scenario, RoundRobinScheduler(), [VmFailure(0, at_time=1.0)], seed=0,
            recovery="round_robin",
        )
        assert faulty.makespan > clean.makespan
        assert faulty.info["retries"] > 0

    def test_no_failures_matches_plain_run(self):
        scenario = heterogeneous_scenario(6, 40, seed=2)
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=2).run()
        faulty = run_resilient(
            scenario, RoundRobinScheduler(), [], seed=2, recovery="round_robin"
        )
        assert faulty.makespan == pytest.approx(clean.makespan)
        assert faulty.info["retries"] == 0
        np.testing.assert_array_equal(faulty.assignment, clean.assignment)

    def test_retries_avoid_dead_vms(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        result = run_resilient(
            scenario, RoundRobinScheduler(), [VmFailure(2, at_time=0.5)], seed=0,
            recovery="round_robin",
        )
        retried = result.assignment != np.arange(40) % 4
        # Every reassigned cloudlet landed off the dead VM.
        assert (result.assignment[retried] != 2).all()
        # And nothing that finished *before* the failure was disturbed.
        done_early = result.finish_times <= 0.5
        assert (result.assignment[done_early] == (np.arange(40) % 4)[done_early]).all()

    def test_failure_after_completion_is_harmless(self):
        scenario = homogeneous_scenario(4, 8, seed=0)
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=0).run()
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(1, at_time=clean.makespan + 100.0)],
            seed=0,
            recovery="round_robin",
        )
        assert result.info["retries"] == 0
        assert result.makespan == pytest.approx(clean.makespan)

    def test_out_of_range_failure_rejected(self):
        scenario = homogeneous_scenario(4, 8, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            run_resilient(
                scenario, RoundRobinScheduler(), [VmFailure(99, 1.0)], seed=0,
                recovery="round_robin",
            )

    def test_waiting_time_reflects_recovery_delay(self):
        scenario = homogeneous_scenario(2, 20, seed=0)
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=0).run()
        faulty = run_resilient(
            scenario, RoundRobinScheduler(), [VmFailure(0, at_time=1.0)], seed=0,
            recovery="round_robin",
        )
        assert faulty.average_waiting_time > clean.average_waiting_time

    def test_multiple_failures_cascade(self):
        scenario = homogeneous_scenario(6, 120, seed=0)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(i, at_time=1.0 + i) for i in range(5)],
            seed=0,
            recovery="round_robin",
        )
        # Only VM 5 survives; everything must still complete there.
        assert result.num_cloudlets == 120
        late_work = result.assignment[result.finish_times > 10.0]
        assert (late_work == 5).all()

    def test_statuses_all_success_at_end(self):
        scenario = homogeneous_scenario(4, 30, seed=0)
        result = run_resilient(
            scenario, RoundRobinScheduler(), [VmFailure(1, at_time=0.7)], seed=0,
            recovery="round_robin",
        )
        assert (result.exec_times > 0).all()

    def test_recovering_failure_restores_the_vm(self):
        scenario = homogeneous_scenario(3, 30, seed=0)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(0, at_time=0.5, downtime=1.0)],
            seed=0,
            recovery="round_robin",
        )
        assert result.info["recoveries"] == 1
        assert result.info["failed_vms"] == []
        assert result.info["retries"] > 0

    def test_host_failure_blast_radius(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        result = run_resilient(
            scenario, RoundRobinScheduler(), [HostFailure(0, at_time=0.6)], seed=0,
            recovery="round_robin",
        )
        assert result.info["host_failures"] == 1
        assert 0 in result.info["failed_vms"]
        assert (result.finish_times > 0).all()

    def test_slowdown_needs_no_retries(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmSlowdown(1, at_time=0.3, duration=4.0, factor=0.5)],
            seed=0,
            recovery="round_robin",
        )
        assert result.info["retries"] == 0
        assert result.info["lost_mi"] == 0.0


class TestCloudletRetryReset:
    def test_reset_clears_progress_keeps_submission(self):
        from repro.cloud.cloudlet import Cloudlet

        c = Cloudlet(cloudlet_id=0, length=100.0)
        c.mark_submitted(2.0, vm_id=1, datacenter_id=0)
        c.mark_running(3.0)
        c.remaining_length = 40.0
        c.reset_for_retry()
        assert c.remaining_length == 100.0
        assert c.exec_start_time == -1.0
        assert c.status is CloudletStatus.CREATED
        # Second submission keeps the original timestamp.
        c.mark_submitted(9.0, vm_id=2, datacenter_id=1)
        assert c.submission_time == 2.0
        assert c.vm_id == 2
