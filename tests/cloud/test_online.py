"""Online simulation: arrival-driven scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.online import MAX_ATTEMPTS, OnlineBroker, OnlineCloudSimulation
from repro.cloud.simulation import CloudSimulation
from repro.schedulers import RoundRobinScheduler, make_scheduler
from repro.schedulers.online import (
    BatchAdapter,
    OnlineGreedyMCT,
    OnlineLeastLoaded,
    OnlineRandom,
    OnlineRoundRobin,
)
from repro.workloads.arrivals import ArrivalProcess, BatchArrivals, PoissonArrivals
from repro.workloads.heterogeneous import heterogeneous_scenario

from tests.integration.test_golden_online import RUNS as GOLDEN_RUNS


class EvenArrivals(ArrivalProcess):
    """One arrival every ``interval`` seconds from t=0."""

    def __init__(self, interval: float) -> None:
        self.interval = interval

    def sample(self, rng, n):
        return np.arange(n) * self.interval


ALL_POLICIES = [
    OnlineRoundRobin,
    OnlineRandom,
    OnlineLeastLoaded,
    OnlineGreedyMCT,
]


class TestPolicies:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_end_to_end(self, small_hetero, policy_cls):
        result = OnlineCloudSimulation(
            small_hetero, policy_cls(), arrivals=PoissonArrivals(rate=5.0), seed=1
        ).run()
        assert result.num_cloudlets == 60
        assert result.makespan > 0
        assert (result.assignment >= 0).all()
        assert result.info["engine"] == "online-des"

    def test_round_robin_cycles(self, small_hetero):
        result = OnlineCloudSimulation(
            small_hetero, OnlineRoundRobin(), arrivals=EvenArrivals(0.01), seed=0
        ).run()
        np.testing.assert_array_equal(result.assignment, np.arange(60) % 12)

    def test_least_loaded_balances_backlog(self):
        scenario = heterogeneous_scenario(num_vms=6, num_cloudlets=120, seed=4)
        result = OnlineCloudSimulation(
            scenario, OnlineLeastLoaded(), arrivals=BatchArrivals(), seed=0
        ).run()
        busy = np.zeros(6)
        np.add.at(busy, result.assignment, result.exec_times)
        assert busy.max() / busy.min() < 3.0

    def test_greedy_beats_round_robin_on_makespan(self):
        scenario = heterogeneous_scenario(num_vms=10, num_cloudlets=200, seed=4)
        greedy = OnlineCloudSimulation(
            scenario, OnlineGreedyMCT(), arrivals=BatchArrivals(), seed=0
        ).run()
        rr = OnlineCloudSimulation(
            scenario, OnlineRoundRobin(), arrivals=BatchArrivals(), seed=0
        ).run()
        assert greedy.makespan < rr.makespan

    def test_flow_time_accounts_for_arrivals(self, small_hetero):
        result = OnlineCloudSimulation(
            small_hetero, OnlineGreedyMCT(), arrivals=EvenArrivals(1.0), seed=0
        ).run()
        # Starts cannot precede arrivals.
        assert (result.start_times >= result.submission_times - 1e-9).all()
        assert result.average_waiting_time >= 0

    def test_decision_time_recorded(self, small_hetero):
        result = OnlineCloudSimulation(
            small_hetero, OnlineGreedyMCT(), seed=0
        ).run()
        assert result.scheduling_time > 0


class TestBatchAdapter:
    def test_single_wave_matches_offline_batch(self, small_hetero):
        """With batch arrivals there is exactly one wave, so the adapter must
        reproduce the offline batch run of the wrapped scheduler."""
        online = OnlineCloudSimulation(
            small_hetero,
            BatchAdapter(RoundRobinScheduler()),
            arrivals=BatchArrivals(),
            seed=0,
        ).run()
        offline = CloudSimulation(small_hetero, RoundRobinScheduler(), seed=0).run()
        np.testing.assert_array_equal(online.assignment, offline.assignment)
        assert online.makespan == pytest.approx(offline.makespan)

    def test_many_waves_still_complete(self, small_hetero):
        result = OnlineCloudSimulation(
            small_hetero,
            BatchAdapter(RoundRobinScheduler()),
            arrivals=EvenArrivals(0.5),
            seed=0,
        ).run()
        assert result.num_cloudlets == 60
        assert result.scheduler_name == "batch[basetest]"

    def test_adapter_requires_wave_setup(self, tiny_context):
        adapter = BatchAdapter(RoundRobinScheduler())
        adapter.start(tiny_context)
        with pytest.raises(RuntimeError, match="begin_wave"):
            adapter.assign(0, 0.0, np.zeros(4), tiny_context)

    def test_adapter_solves_an_earlier_wave_cloudlet_alone(self, tiny_context):
        adapter = BatchAdapter(make_scheduler("greedy-mct"))
        adapter.start(tiny_context)
        backlog = np.zeros(4)
        adapter.begin_wave(np.array([0, 1, 2, 3]), tiny_context)
        adapter.begin_wave(np.array([4, 5]), tiny_context)
        wave = [adapter.assign(i, 0.0, backlog, tiny_context) for i in (4, 5)]
        # Alone, cloudlet 3 goes to the fastest VM; the current wave keeps
        # its own answers, and a cloudlet no wave held still raises.
        assert adapter.assign(3, 0.0, backlog, tiny_context) == 3
        assert [adapter.assign(i, 0.0, backlog, tiny_context) for i in (4, 5)] == wave
        with pytest.raises(RuntimeError, match="begin_wave"):
            adapter.assign(7, 0.0, backlog, tiny_context)

    @pytest.mark.parametrize(
        "run, name",
        [("storm", "greedy-mct"), ("controlled", "basetest"), ("controlled", "greedy-mct")],
    )
    def test_bounced_cloudlets_from_earlier_waves_are_replaced(self, run, name):
        """Crash bounces and rebalance cancels re-place cloudlets after a
        later wave began; every cloudlet still finishes."""
        scenario = heterogeneous_scenario(10, 80, seed=5)
        result = OnlineCloudSimulation(
            scenario, BatchAdapter(make_scheduler(name)), seed=3, **GOLDEN_RUNS[run]
        ).run()
        assert result.num_cloudlets == 80
        assert np.all(result.finish_times >= result.start_times)
        assert result.info["retries"] > 0

    def test_online_aware_policy_beats_blind_batch_under_load(self):
        """Under sustained arrivals, backlog-aware greedy must beat a batch
        scheduler that re-solves each wave blindly."""
        scenario = heterogeneous_scenario(num_vms=8, num_cloudlets=240, seed=9)
        arrivals = EvenArrivals(interval=0.05)
        greedy = OnlineCloudSimulation(
            scenario, OnlineGreedyMCT(), arrivals=arrivals, seed=0
        ).run()
        blind = OnlineCloudSimulation(
            scenario, BatchAdapter(RoundRobinScheduler()), arrivals=arrivals, seed=0
        ).run()
        assert greedy.makespan < blind.makespan


class TestValidation:
    @pytest.mark.parametrize("standby_vms", [0, 1], ids=["plain", "standby"])
    def test_policy_returning_bad_vm_detected(self, small_hetero, standby_vms):
        """Out-of-range picks raise even when parked VMs force masking."""

        class Broken(OnlineRoundRobin):
            def assign(self, cloudlet_idx, now, backlog, context):
                return 10_000

        with pytest.raises(ValueError, match="invalid VM index"):
            OnlineCloudSimulation(
                small_hetero, Broken(), seed=0, standby_vms=standby_vms
            ).run()

    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda: BatchArrivals(at=np.nan), "at"),
            (lambda: PoissonArrivals(rate=np.nan), "rate"),
            (lambda: PoissonArrivals(rate=2.0, start=np.nan), "start"),
        ],
        ids=["batch-at-nan", "poisson-rate-nan", "poisson-start-nan"],
    )
    def test_non_finite_arrival_times_rejected(self, build, field):
        """NaN arrival settings used to run with NaN submission times; they
        now fail at construction, naming the setting."""
        with pytest.raises(ValueError, match=field):
            build()

    def test_non_finite_sampled_arrival_times_rejected(self):
        """A process that samples NaN still meets the broker's own check."""

        class NanArrivals(ArrivalProcess):
            def sample(self, rng, n):
                times = np.zeros(n)
                times[-1] = np.nan
                return times

        scenario = heterogeneous_scenario(6, 30, seed=0)
        with pytest.raises(ValueError, match="arrival times must be finite"):
            OnlineCloudSimulation(
                scenario, OnlineGreedyMCT(), arrivals=NanArrivals(), seed=0
            ).run()

    def test_fractional_standby_rejected(self):
        """A fractional reserve used to fail inside numpy's slicing."""
        scenario = heterogeneous_scenario(6, 30, seed=0)
        with pytest.raises(ValueError, match="standby_vms must be an integer"):
            OnlineCloudSimulation(
                scenario, OnlineGreedyMCT(), seed=0, standby_vms=2.5
            ).run()


class TestBrokerEdgeCases:
    """PR 6 edge cases: empty waves, cancelled tails, interleaved notices."""

    def _broker(self, num_vms=3, num_cloudlets=5):
        return OnlineBroker(
            name="broker",
            vms=[object() for _ in range(num_vms)],
            cloudlets=[object() for _ in range(num_cloudlets)],
            arrival_times=np.zeros(num_cloudlets),
            policy=None,
            context=None,
            vm_placement={i: 0 for i in range(num_vms)},
        )

    def test_empty_arrival_wave_is_harmless(self):
        """A wave instant with no cloudlets places nothing and doesn't raise."""
        broker = self._broker()
        before = broker.assignment.copy()
        broker._on_timer(123.456)  # instant that never had arrivals
        np.testing.assert_array_equal(broker.assignment, before)
        assert all(not s for s in broker._inflight)

    def test_cancel_tail_keeps_one_cloudlet(self):
        """Cancelling everything on a VM always spares one resident."""
        broker = self._broker()
        broker.send_now = lambda *args, **kwargs: None  # detached from a sim
        broker._inflight[1] = {0, 1, 2}
        assert broker.cancel_for_rebalance(1, max_cancel=10) == 2
        assert broker.rebalance_cancels == 2

    def test_cancel_sole_cloudlet_is_refused(self):
        broker = self._broker()
        broker._inflight[0] = {4}
        assert broker.cancel_for_rebalance(0, max_cancel=5) == 0
        assert broker.rebalance_cancels == 0

    def test_cancel_skips_pinned_and_already_bouncing(self):
        broker = self._broker()
        broker.send_now = lambda *args, **kwargs: None
        broker._inflight[2] = {0, 1, 2, 3}
        broker.moves[0] = MAX_ATTEMPTS  # pinned: moved too often
        broker._planned_bounces.add(1)  # already mid-bounce
        assert broker.cancel_for_rebalance(2, max_cancel=10) == 2
        assert broker._planned_bounces == {1, 2, 3}

    def test_all_finished_on_empty_workload(self):
        broker = self._broker(num_cloudlets=0)
        assert broker.all_finished

    def test_all_finished_under_interleaved_fault_notices(self, small_hetero):
        """Fault notices between returns never confuse completion tracking."""
        from repro.workloads.timeline import Timeline, VmFault

        timeline = Timeline(
            entries=(
                VmFault(at="+0.5s", vm_index=0, downtime="2s"),
                VmFault(at="+1.5s", vm_index=1, downtime="2s"),
            ),
            name="interleaved",
        )
        result = OnlineCloudSimulation(
            small_hetero, OnlineGreedyMCT(), seed=0, timeline=timeline
        ).run()
        assert len(np.unique(result.assignment >= 0)) == 1
        assert (result.finish_times > 0).all()
        assert result.info["faults"] == 2
