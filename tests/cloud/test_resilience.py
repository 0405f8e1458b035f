"""Retry policies, failure-aware rescheduling and recovery properties."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.chaos import ChaosConfig, generate_fault_plan
from repro.cloud.cloudlet import CloudletStatus
from repro.cloud.datacenter import FaultNotice
from repro.cloud.faults import (
    HostFailure,
    VmFailure,
    VmSlowdown,
    validate_fault_plan,
)
from repro.cloud.resilience import (
    ExponentialBackoffRetry,
    ImmediateRetry,
    RoundRobinRecoveryBroker,
    run_resilient,
)
from repro.cloud.simulation import CloudSimulation, build_simulation
from repro.core.eventqueue import Event
from repro.core.rng import spawn_rng
from repro.core.tags import EventTag
from repro.schedulers import (
    GreedyMinCompletionScheduler,
    RoundRobinScheduler,
    SchedulingContext,
    make_scheduler,
)
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario


class TestRetryPolicies:
    def test_immediate_is_zero_delay(self):
        policy = ImmediateRetry(max_attempts=3)
        rng = spawn_rng(0, "t")
        assert policy.next_delay(2, rng) == 0.0
        assert policy.next_delay(3, rng) == 0.0
        assert policy.next_delay(4, rng) is None

    def test_exponential_growth_and_cap(self):
        policy = ExponentialBackoffRetry(
            base_delay=1.0, factor=2.0, max_delay=5.0, jitter=0.0, max_attempts=10
        )
        rng = spawn_rng(0, "t")
        delays = [policy.next_delay(a, rng) for a in range(2, 7)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = ExponentialBackoffRetry(base_delay=1.0, jitter=0.2, max_attempts=9)
        a = [policy.next_delay(2, spawn_rng(7, "t")) for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same seed, same jitter
        for _ in range(50):
            d = policy.next_delay(2, spawn_rng(7, "t2"))
            assert 0.8 <= d <= 1.2

    def test_first_attempt_is_not_a_retry(self):
        with pytest.raises(ValueError, match="attempt 2"):
            ImmediateRetry().next_delay(1, spawn_rng(0, "t"))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ImmediateRetry(max_attempts=0)
        with pytest.raises(ValueError):
            ExponentialBackoffRetry(jitter=1.5)
        with pytest.raises(ValueError):
            ExponentialBackoffRetry(factor=0.5)


class TestNanSettingsRejected:
    """A NaN recovery setting fails at construction and names itself.

    Each used to pass its ``<``/``<=`` check: NaN speculation dead-lettered
    cloudlets, NaN ``max_delay`` broke causality, NaN ``base_delay`` or
    ``factor`` made every retry wait ``max_delay``.
    """

    @pytest.mark.parametrize("name", ["base_delay", "max_delay", "factor"])
    def test_backoff_parameter(self, name):
        with pytest.raises(ValueError, match=name):
            ExponentialBackoffRetry(**{name: float("nan")})

    def test_max_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ImmediateRetry(max_attempts=float("nan"))

    def test_speculation_multiple(self):
        scenario = heterogeneous_scenario(6, 30, seed=0)
        with pytest.raises(ValueError, match="speculation_multiple"):
            run_resilient(
                scenario, RoundRobinScheduler(), [VmFailure(1, 2.0, None)],
                seed=0, speculation_multiple=float("nan"),
            )


class TestRetryCursorStability:
    """Blind recovery's rotation cursor walks VM indices, so the sequence
    does not jump when the alive set shrinks mid-rotation.

    The broker is driven by the events a datacenter sends it: fault
    notices, then bounced (``FAILED``) cloudlets.
    """

    def _broker(self, num_vms=4):
        scenario = homogeneous_scenario(num_vms, 1, seed=0)
        env = build_simulation(scenario)
        broker = RoundRobinRecoveryBroker(
            "b",
            vms=env.vms,
            cloudlets=env.cloudlets,
            assignment=[0],
            vm_placement=env.vm_placement,
            scheduler=RoundRobinScheduler(),
            context=SchedulingContext.from_scenario(scenario, 0),
            retry_policy=ImmediateRetry(),
            rng=spawn_rng(0, "t"),
        )
        env.sim.register(broker)
        return broker

    @staticmethod
    def _notify(broker, kind, *vm_ids):
        notice = FaultNotice(kind, tuple(vm_ids))
        broker.process_event(Event(0.0, -1, broker.id, EventTag.FAULT_NOTICE, notice))

    @staticmethod
    def _retry_picks(broker, count):
        """Bounce the broker's cloudlet ``count`` times; return each retry VM."""
        cloudlet = broker.cloudlets[0]
        picks = []
        for _ in range(count):
            cloudlet.status = CloudletStatus.FAILED
            broker.process_event(
                Event(0.0, -1, broker.id, EventTag.CLOUDLET_RETURN, cloudlet)
            )
            picks.append(int(broker.final_assignment[0]))
        return picks

    def test_round_robin_skips_dead(self):
        broker = self._broker()
        self._notify(broker, "vm-failed", 1)
        assert self._retry_picks(broker, 6) == [0, 2, 3, 0, 2, 3]
        assert broker.retries == 6

    def test_sequence_stable_under_mid_rotation_failure(self):
        broker = self._broker()
        self._notify(broker, "vm-failed", 1)
        assert self._retry_picks(broker, 2) == [0, 2]
        self._notify(broker, "vm-failed", 0)
        # The cursor keeps walking indices: 3, then wraps past dead 0/1 to 2.
        assert self._retry_picks(broker, 2) == [3, 2]

    def test_recovery_rejoins_rotation(self):
        broker = self._broker()
        self._notify(broker, "vm-failed", 2)
        assert self._retry_picks(broker, 3) == [0, 1, 3]
        self._notify(broker, "vm-recovered", 2)
        assert self._retry_picks(broker, 4) == [0, 1, 2, 3]

    def test_all_dead_raises(self):
        broker = self._broker(2)
        self._notify(broker, "vm-failed", 0, 1)
        with pytest.raises(RuntimeError, match="every VM has failed"):
            self._retry_picks(broker, 1)


#: Zero-fault cases; a case id names its recovery unless it is the default.
ZERO_FAULT_CASES = [
    pytest.param(
        scheduler_cls,
        recovery,
        id=scheduler_cls.__name__
        + ("" if recovery == "rescheduling" else f"-{recovery}"),
    )
    for recovery in ("rescheduling", "round_robin")
    for scheduler_cls in (RoundRobinScheduler, GreedyMinCompletionScheduler)
]


class TestZeroFaultReproduction:
    """Property: an empty fault plan reproduces the plain DES run bit-for-bit."""

    @pytest.mark.parametrize("scheduler_cls, recovery", ZERO_FAULT_CASES)
    def test_bit_for_bit(self, scheduler_cls, recovery):
        scenario = heterogeneous_scenario(8, 80, seed=4)
        plain = CloudSimulation(scenario, scheduler_cls(), seed=4).run()
        resilient = run_resilient(
            scenario, scheduler_cls(), [], seed=4, recovery=recovery
        )
        np.testing.assert_array_equal(resilient.assignment, plain.assignment)
        np.testing.assert_array_equal(resilient.submission_times, plain.submission_times)
        np.testing.assert_array_equal(resilient.start_times, plain.start_times)
        np.testing.assert_array_equal(resilient.finish_times, plain.finish_times)
        np.testing.assert_array_equal(resilient.costs, plain.costs)
        assert resilient.makespan == plain.makespan
        assert resilient.time_imbalance == plain.time_imbalance
        assert resilient.total_cost == plain.total_cost
        assert resilient.events_processed == plain.events_processed
        assert resilient.info["retries"] == 0
        assert resilient.info["dead_letter"] == []


class TestMiConservation:
    """Property: retries carry no partial progress — every completed cloudlet
    executed its full length on its final VM, and lost progress is accounted."""

    def test_full_length_on_final_vm(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(1, at_time=0.7)],
            seed=0,
            retry_policy=ImmediateRetry(max_attempts=5),
        )
        arr = scenario.arrays()
        assert result.info["dead_letter"] == []
        expected = arr.cloudlet_length / arr.vm_mips[result.assignment]
        np.testing.assert_allclose(result.exec_times, expected, rtol=1e-9)
        assert result.info["lost_mi"] > 0
        assert result.info["lost_mi"] <= arr.cloudlet_length.sum()

    def test_completed_plus_dead_lettered_covers_batch(self):
        scenario = homogeneous_scenario(3, 30, seed=1)
        result = run_resilient(
            scenario,
            RoundRobinScheduler(),
            [VmFailure(0, at_time=0.5), VmFailure(1, at_time=0.9)],
            seed=1,
            retry_policy=ImmediateRetry(max_attempts=2),
        )
        dead = set(result.info["dead_letter"])
        completed = {i for i in range(30) if result.finish_times[i] > 0}
        assert dead.isdisjoint(completed)
        assert dead | completed == set(range(30))
        # Dead-lettered cloudlets keep their -1 sentinels.
        for i in dead:
            assert result.finish_times[i] == -1.0


class TestNoDeadVmPlacement:
    """Property: no cloudlet finishes on a VM after that VM permanently died."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permanent_failures(self, seed):
        scenario = heterogeneous_scenario(6, 60, seed=seed)
        fails = {0: 2.0, 3: 4.0}
        plan = [VmFailure(k, at_time=t) for k, t in fails.items()]
        result = run_resilient(
            scenario, GreedyMinCompletionScheduler(), plan, seed=seed,
            retry_policy=ImmediateRetry(max_attempts=8),
        )
        assert result.info["dead_letter"] == []
        for vm_index, at_time in fails.items():
            on_dead = result.assignment == vm_index
            # Anything placed there must have finished by the crash instant.
            assert (result.finish_times[on_dead] <= at_time + 1e-9).all()
        assert sorted(result.info["failed_vms"]) == sorted(fails)


class TestRecoveryAndStragglers:
    def test_vm_recovery_restores_capacity(self):
        scenario = homogeneous_scenario(2, 24, seed=0)
        plan = [VmFailure(0, at_time=1.0, downtime=2.0)]
        result = run_resilient(
            scenario, RoundRobinScheduler(), plan, seed=0,
            # A constant 2.5 s pause before every retry.
            retry_policy=ExponentialBackoffRetry(
                base_delay=2.5, factor=1.0, jitter=0.0, max_attempts=5
            ),
        )
        assert result.info["dead_letter"] == []
        assert result.info["recoveries"] == 1
        assert result.info["failed_vms"] == []  # alive again at the end
        # Work placed after the recovery instant runs on VM 0 again.
        late_on_0 = (result.assignment == 0) & (result.start_times > 3.0)
        assert late_on_0.any()

    def test_straggler_retiming_is_exact(self):
        # 1 VM at 10 MIPS, one 100 MI cloudlet: finishes at t=10 clean.
        # Halving speed over [5, 15) leaves 50 MI at t=5 run at 5 MIPS -> 15.
        from repro.workloads.spec import (
            CloudletSpec,
            DatacenterSpec,
            ScenarioSpec,
            VmSpec,
        )

        scenario = ScenarioSpec(
            name="straggler-unit",
            datacenters=(DatacenterSpec(),),
            vms=(VmSpec(mips=10.0),),
            cloudlets=(CloudletSpec(length=100.0),),
            vm_datacenter=(0,),
        )
        plan = [VmSlowdown(0, at_time=5.0, duration=10.0, factor=0.5)]
        result = run_resilient(
            scenario, RoundRobinScheduler(), plan, seed=0, recovery="round_robin"
        )
        assert result.finish_times[0] == pytest.approx(15.0)

    def test_straggler_slows_but_loses_nothing(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=0).run()
        plan = [VmSlowdown(2, at_time=0.2, duration=5.0, factor=0.25)]
        slowed = run_resilient(scenario, RoundRobinScheduler(), plan, seed=0)
        assert slowed.makespan > clean.makespan
        assert slowed.info["retries"] == 0
        assert slowed.info["lost_mi"] == 0.0

    def test_host_failure_kills_colocated_vms(self):
        scenario = homogeneous_scenario(4, 40, seed=0)
        result = run_resilient(
            scenario, RoundRobinScheduler(), [HostFailure(0, at_time=0.6)],
            seed=0, retry_policy=ImmediateRetry(max_attempts=6),
        )
        assert result.info["host_failures"] == 1
        assert 0 in result.info["failed_vms"]
        assert result.info["dead_letter"] == []
        assert result.info["retries"] > 0


class TestSpeculation:
    def test_straggler_victim_is_cancelled_and_reruns_elsewhere(self):
        scenario = homogeneous_scenario(4, 24, seed=0)
        # VM 1 runs at 1% speed for a very long window: its cloudlets blow
        # straight through the 3x-expected watchdog and get re-placed.
        plan = [VmSlowdown(1, at_time=0.05, duration=1e4, factor=0.01)]
        result = run_resilient(
            scenario, RoundRobinScheduler(), plan, seed=0,
            retry_policy=ImmediateRetry(max_attempts=10),
            speculation_multiple=3.0,
        )
        assert result.info["speculative_cancels"] > 0
        assert result.info["dead_letter"] == []
        clean = CloudSimulation(scenario, RoundRobinScheduler(), seed=0).run()
        # Without speculation the batch is hostage to the straggler.
        hostage = run_resilient(scenario, RoundRobinScheduler(), plan, seed=0)
        assert result.makespan < hostage.makespan
        assert result.makespan < 10 * clean.makespan

    def test_speculation_multiple_must_exceed_one(self):
        scenario = homogeneous_scenario(2, 4, seed=0)
        with pytest.raises(ValueError, match="speculation_multiple"):
            run_resilient(
                scenario, RoundRobinScheduler(), [], seed=0,
                speculation_multiple=0.5,
            )


class TestPlanValidation:
    def test_duplicate_permanent_failure_rejected(self):
        plan = [VmFailure(0, 1.0), VmFailure(0, 5.0)]
        with pytest.raises(ValueError, match="never recovers"):
            validate_fault_plan(plan, 4)

    def test_refailure_before_recovery_rejected(self):
        plan = [VmFailure(0, 1.0, downtime=10.0), VmFailure(0, 5.0)]
        with pytest.raises(ValueError, match="before recovering"):
            validate_fault_plan(plan, 4)

    def test_refailure_after_recovery_allowed(self):
        plan = [VmFailure(0, 1.0, downtime=2.0), VmFailure(0, 5.0)]
        assert validate_fault_plan(plan, 4) == plan

    def test_same_instant_same_vm_rejected(self):
        plan = [VmFailure(0, 3.0), VmSlowdown(0, 3.0, duration=1.0, factor=0.5)]
        with pytest.raises(ValueError, match="identical instant"):
            validate_fault_plan(plan, 4)

    def test_host_failure_counts_as_failure_of_anchor(self):
        plan = [HostFailure(1, 2.0), VmFailure(1, 9.0)]
        with pytest.raises(ValueError, match="never recovers"):
            validate_fault_plan(plan, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_fault_plan([VmFailure(9, 1.0)], 4)

    def test_slowdown_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            VmSlowdown(0, 1.0, duration=1.0, factor=1.5)
        with pytest.raises(ValueError, match="factor"):
            VmSlowdown(0, 1.0, duration=1.0, factor=0.0)

    def test_same_instant_different_vms_allowed(self):
        plan = [VmFailure(0, 3.0), VmFailure(1, 3.0)]
        assert validate_fault_plan(plan, 4) == plan


class TestReschedulingBeatsBlindRecovery:
    def test_heterogeneous_degradation(self):
        """Acceptance: scheduler-driven recovery beats blind round-robin on
        makespan degradation in a heterogeneous scenario."""
        scenario = heterogeneous_scenario(10, 120, seed=5)
        scheduler = GreedyMinCompletionScheduler()
        baseline = CloudSimulation(scenario, scheduler, seed=5).run()
        plan = [VmFailure(0, at_time=2.0), VmFailure(4, at_time=3.0)]
        blind = run_resilient(
            scenario, scheduler, plan, seed=5, recovery="round_robin"
        )
        smart = run_resilient(
            scenario, scheduler, plan, seed=5,
            retry_policy=ImmediateRetry(max_attempts=8),
        )
        assert smart.info["dead_letter"] == []
        assert smart.makespan / baseline.makespan < blind.makespan / baseline.makespan
        assert smart.info["reschedules"] >= 1


class TestRoundRobinRecoveryPins:
    """Blind recovery's decisions, pinned exactly on four chaos cells.

    Heterogeneous 12×120 at seed 1 under a recovering crash, a host crash
    and a straggler, drawn as :func:`run_chaos_suite` draws its plans.  A
    pin is the SHA-256 of (final assignment, start times, finish times)
    plus the retry count and the kernel's processed-event count.  The
    same cells also pin rescheduling with speculation on, which the
    gauntlet's faulty rows (speculation off) never reach.
    """

    CONFIG = ChaosConfig(
        num_vm_failures=1, num_host_failures=1, num_stragglers=1, recover_fraction=1.0
    )

    @classmethod
    def _run(cls, name, execution_model, **kwargs):
        """One resilient run on the chaos cell; returns (result, digest)."""
        scenario = heterogeneous_scenario(12, 120, seed=1)
        clean = CloudSimulation(
            scenario, make_scheduler(name), seed=1, execution_model=execution_model
        ).run()
        plan = generate_fault_plan(
            scenario, clean.makespan, cls.CONFIG, spawn_rng(1, f"chaos/{scenario.name}")
        )
        result = run_resilient(
            scenario, make_scheduler(name), plan, seed=1,
            execution_model=execution_model, **kwargs,
        )
        digest = hashlib.sha256()
        digest.update(np.asarray(result.assignment, dtype=np.int64).tobytes())
        digest.update(np.asarray(result.start_times, dtype=np.float64).tobytes())
        digest.update(np.asarray(result.finish_times, dtype=np.float64).tobytes())
        return result, digest.hexdigest()

    @pytest.mark.parametrize(
        "name, execution_model, sha256, retries, events",
        [
            ("basetest", "space-shared",
             "ae864c62b666f8b37b2b3fa055a9c67aa08d4625d71da5643d4662d2f60f2cf3", 6, 405),
            ("greedy-mct", "space-shared",
             "23b5f13504aa1c8d84684030e972e9967bb83f14e0526b31775fe09a360f5f94", 22, 437),
            ("honeybee", "space-shared",
             "02aff9fc83d5ec20d7d786892459683b615e18343df99b99403c1080b4e32f57", 38, 469),
            ("rbs", "time-shared",
             "3df6224406a3c4f02bcee26b69d6e37dddd9d5a14f73a118960ee5ce45daf452", 22, 437),
        ],
        ids=["basetest", "greedy-mct", "honeybee", "rbs-time-shared"],
    )
    def test_decisions_pinned(self, name, execution_model, sha256, retries, events):
        result, digest = self._run(name, execution_model, recovery="round_robin")
        assert digest == sha256
        assert result.info["retries"] == retries
        assert result.events_processed == events

    @pytest.mark.parametrize(
        "name, execution_model, multiple, sha256, retries, cancels, events",
        [
            ("greedy-mct", "space-shared", 1.05,
             "f393878398bd48b937ef6c4097035caa4b84f6dbe853ff76d059ea11d127ffe7",
             22, 2, 603),
            ("honeybee", "space-shared", 1.05,
             "0c260f108018370cda4bf2839ea4ae25485131634284d99b42a2b151005d4e0a",
             40, 5, 678),
            ("basetest", "time-shared", 2.0,
             "b4577a0748e69bb5e95feacd0b0d0a6a6c330cd63b6f850c0de0e34e78821e68",
             53, 44, 769),
            ("rbs", "time-shared", 2.0,
             "1b42336dc8a83c744ec6c08e02bb62450fad4939d611f93e14433d225572b8fd",
             71, 50, 847),
        ],
        ids=["greedy-mct", "honeybee", "basetest-time-shared", "rbs-time-shared"],
    )
    def test_speculative_rescheduling_pinned(
        self, name, execution_model, multiple, sha256, retries, cancels, events
    ):
        result, digest = self._run(
            name, execution_model, speculation_multiple=multiple
        )
        assert digest == sha256
        assert result.info["retries"] == retries
        assert result.info["speculative_cancels"] == cancels
        assert result.events_processed == events


class TestRecoveryArgument:
    @staticmethod
    def _run(**kwargs):
        scenario = homogeneous_scenario(2, 4, seed=0)
        return run_resilient(scenario, RoundRobinScheduler(), [], seed=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"retry_policy": ImmediateRetry()}, "retry_policy"),
            ({"speculation_multiple": 3.0}, "speculation_multiple"),
            (
                {"retry_policy": ImmediateRetry(), "speculation_multiple": 3.0},
                "retry_policy or speculation_multiple",
            ),
        ],
        ids=["retry_policy", "speculation_multiple", "both"],
    )
    def test_round_robin_rejects_rescheduling_settings(self, kwargs, named):
        with pytest.raises(ValueError, match=f"takes no {named}$"):
            self._run(recovery="round_robin", **kwargs)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery 'blind'"):
            self._run(recovery="blind")

    def test_recovery_is_recorded(self):
        blind, resched = self._run(recovery="round_robin"), self._run()
        assert blind.info["recovery"] == "round_robin"
        assert resched.info["recovery"] == "rescheduling"
        # Only the non-default recovery enters the manifest, which is
        # enough to give the two recoveries different fingerprints.
        assert blind.info["manifest"]["extra"]["recovery"] == "round_robin"
        assert "recovery" not in resched.info["manifest"]["extra"]
