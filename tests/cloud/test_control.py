"""Tests for the MAPE-K control loop and the online broker's actuators."""

import math

import numpy as np
import pytest

from repro.cloud.control import ControlConfig, ControlLoop
from repro.cloud.datacenter import FaultNotice
from repro.cloud.online import OnlineBroker, OnlineCloudSimulation
from repro.core.eventqueue import Event
from repro.core.tags import EventTag
from repro.schedulers.online import OnlineGreedyMCT, OnlineLeastLoaded
from repro.workloads.timeline import Burst, Timeline, Trigger, VmFault


def make_broker(num_vms=4, num_cloudlets=6, standby_vms=0):
    """A detached broker: enough for mask/actuator unit tests.

    Policy/context stay ``None`` — they are only consulted during
    placement, which these tests never reach.
    """
    return OnlineBroker(
        name="broker",
        vms=[object() for _ in range(num_vms)],
        cloudlets=[object() for _ in range(num_cloudlets)],
        arrival_times=np.zeros(num_cloudlets),
        policy=None,
        context=None,
        vm_placement={i: 0 for i in range(num_vms)},
        standby_vms=standby_vms,
    )


class TestControlConfig:
    def test_defaults_validate(self):
        config = ControlConfig()
        assert config.cadence == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence": 0.0},
            {"cadence": math.nan},
            {"cooldown": -1.0},
            {"cooldown": math.inf},
            {"max_moves_per_cycle": 0},
            {"imbalance_threshold": 1.0},
            {"imbalance_threshold": math.nan},
            {"scale_up_backlog": 0.0},
            {"scale_down_backlog": -2.0},
            {"sla_seconds": math.inf},
            {"standby_vms": -1},
            {"history": 0},
        ],
    )
    def test_rejects_bad_tuning(self, kwargs):
        with pytest.raises(ValueError):
            ControlConfig(**kwargs)

    def test_to_dict_is_json_safe_and_complete(self):
        config = ControlConfig(standby_vms=2, sla_seconds=30.0)
        d = config.to_dict()
        assert d["standby_vms"] == 2 and d["sla_seconds"] == 30.0
        assert set(d) == set(vars(config))


class TestBrokerMasks:
    def test_standby_parks_highest_indices(self):
        broker = make_broker(num_vms=5, standby_vms=2)
        np.testing.assert_array_equal(broker.active, [True, True, True, False, False])
        np.testing.assert_array_equal(broker.eligible, broker.active)

    def test_standby_must_leave_one_active(self):
        with pytest.raises(ValueError, match="at least one active"):
            make_broker(num_vms=3, standby_vms=3)

    def test_fault_notice_flips_alive(self):
        broker = make_broker(num_vms=4)
        down = Event(0.0, -1, 0, EventTag.FAULT_NOTICE, FaultNotice("vm-failed", (1, 2)))
        broker.process_event(down)
        np.testing.assert_array_equal(broker.alive, [True, False, False, True])
        up = Event(0.0, -1, 0, EventTag.FAULT_NOTICE, FaultNotice("vm-recovered", (2,)))
        broker.process_event(up)
        np.testing.assert_array_equal(broker.alive, [True, False, True, True])
        np.testing.assert_array_equal(broker.eligible, broker.alive)

    def test_activate_standby_recruits_lowest_parked_first(self):
        broker = make_broker(num_vms=5, standby_vms=2)
        assert broker.activate_standby(1) == 1
        np.testing.assert_array_equal(broker.active, [True, True, True, True, False])
        assert broker.scale_ups == 1
        assert broker.activate_standby(5) == 1  # only one reserve VM left
        assert broker.active.all()
        assert broker.activate_standby(1) == 0  # nothing parked

    def test_activate_standby_skips_dead_reserve(self):
        broker = make_broker(num_vms=4, standby_vms=2)
        broker.alive[2] = False
        assert broker.activate_standby(2) == 1
        assert not broker.active[2] and broker.active[3]

    def test_drain_parks_idle_highest_first(self):
        broker = make_broker(num_vms=4)
        assert broker.drain_active(1) == 1
        np.testing.assert_array_equal(broker.active, [True, True, True, False])
        assert broker.scale_downs == 1

    def test_drain_skips_busy_vms(self):
        broker = make_broker(num_vms=3)
        broker._inflight[2].add(0)
        broker.backlog[1] = 4.0
        assert broker.drain_active(3) == 1  # only vm 0 is idle
        np.testing.assert_array_equal(broker.active, [False, True, True])

    def test_drain_keeps_one_eligible(self):
        broker = make_broker(num_vms=3)
        assert broker.drain_active(10) == 2
        assert broker.eligible.sum() == 1


class TestRunsUnderControl:
    def run(self, scenario, **kwargs):
        return OnlineCloudSimulation(
            scenario, OnlineGreedyMCT(), seed=0, **kwargs
        ).run()

    def test_fault_retry_without_loop(self, small_hetero):
        timeline = Timeline(
            entries=(VmFault(at="+1s", vm_index=0, downtime="5s"),),
            name="one-crash",
        )
        result = self.run(small_hetero, timeline=timeline)
        assert (result.assignment >= 0).all()
        assert result.info["faults"] == 1
        assert result.info["first_fault_time"] == 1.0
        assert result.info["retries"] >= 0
        assert "control" not in result.info

    def test_standby_recruited_under_pressure(self, small_hetero):
        timeline = Timeline(base_rate=30.0, entries=(Burst(at="+1s", count=20),))
        control = ControlConfig(
            cadence=0.5, cooldown=1.0, scale_up_backlog=0.5, standby_vms=3
        )
        result = self.run(small_hetero, timeline=timeline, control=control)
        summary = result.info["control"]
        assert summary["scale_ups"] > 0
        assert summary["cycles"] > 0
        assert result.info["standby_vms"] == 3

    def test_dead_vm_triggers_scale_up(self, small_hetero):
        timeline = Timeline(entries=(VmFault(at="+1s", vm_index=0),), name="perma")
        control = ControlConfig(cadence=0.5, cooldown=1.0, standby_vms=2)
        result = self.run(small_hetero, timeline=timeline, control=control)
        assert result.info["control"]["scale_ups"] >= 1

    def test_rebalance_bookkeeping(self, small_hetero):
        control = ControlConfig(cadence=0.25, cooldown=0.5, imbalance_threshold=1.5)
        result = self.run(small_hetero, control=control)
        summary = result.info["control"]
        assert summary["rebalance_cancels"] == summary["actions"].get("rebalance", 0)

    def test_aggressive_loop_terminates(self, small_hetero):
        """The keep-one + per-cloudlet move cap prevent rebalance livelock."""
        control = ControlConfig(
            cadence=0.1, cooldown=0.0, imbalance_threshold=1.01,
            max_moves_per_cycle=4,
        )
        result = self.run(small_hetero, control=control)
        assert (result.assignment >= 0).all()
        assert np.isfinite(result.makespan)

    def test_timeline_trigger_reaches_loop(self, small_hetero):
        timeline = Timeline(
            triggers=(Trigger("pending", ">", 0.0, "scale_up"),), name="trig"
        )
        control = ControlConfig(cadence=0.5, standby_vms=2)
        result = self.run(small_hetero, timeline=timeline, control=control)
        assert result.info["control"]["actions"].get("scale_up", 0) >= 1

    def test_summary_shape(self, small_hetero):
        result = self.run(small_hetero, control=ControlConfig())
        summary = result.info["control"]
        assert set(summary) == {
            "cycles", "actions", "retries", "rebalance_cancels",
            "scale_ups", "scale_downs",
        }

    def test_inert_loop_matches_plain_schedule(self, small_hetero):
        plain = self.run(small_hetero)
        inert = self.run(
            small_hetero, control=ControlConfig(imbalance_threshold=1e9)
        )
        np.testing.assert_array_equal(plain.assignment, inert.assignment)
        np.testing.assert_array_equal(plain.finish_times, inert.finish_times)
        assert inert.info["control"]["actions"] == {}

    def test_controlled_run_is_deterministic(self, small_hetero):
        timeline = Timeline(
            base_rate=20.0,
            entries=(VmFault(at="+1s", vm_index=1, downtime="4s"),),
        )
        control = ControlConfig(
            cadence=0.5, cooldown=1.0, imbalance_threshold=2.0,
            scale_up_backlog=1.0, standby_vms=2,
        )
        a = self.run(small_hetero, timeline=timeline, control=control)
        b = self.run(small_hetero, timeline=timeline, control=control)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.finish_times, b.finish_times)
        assert a.info["control"] == b.info["control"]

    def test_engine_guard_other_policies(self, small_hetero):
        result = OnlineCloudSimulation(
            small_hetero,
            OnlineLeastLoaded(),
            seed=0,
            timeline=Timeline(entries=(VmFault(at="+1s", vm_index=0, downtime="3s"),)),
        ).run()
        assert (result.assignment >= 0).all()


class TestLoopUnit:
    def test_loop_rejects_non_timer_events(self):
        loop = ControlLoop("loop", broker=make_broker(), config=ControlConfig())
        with pytest.raises(ValueError, match="unexpected event tag"):
            loop.process_event(Event(0.0, -1, 0, EventTag.CLOUDLET_SUBMIT))

    def test_analyze_maps_symptoms(self):
        loop = ControlLoop(
            "loop",
            broker=make_broker(),
            config=ControlConfig(
                imbalance_threshold=2.0, scale_up_backlog=5.0, scale_down_backlog=0.5
            ),
        )
        calm = {
            "mean_backlog": 1.0, "max_backlog": 1.0, "imbalance": 1.0,
            "dead_vms": 0.0, "pending": 3.0, "active_vms": 4.0,
        }
        assert loop.analyze(dict(calm, imbalance=3.0)) == ["rebalance"]
        assert loop.analyze(dict(calm, dead_vms=1.0)) == ["scale_up"]
        assert loop.analyze(dict(calm, mean_backlog=9.0)) == ["scale_up"]
        assert loop.analyze(dict(calm, mean_backlog=0.1)) == ["scale_down"]
        assert loop.analyze(dict(calm, mean_backlog=0.1, dead_vms=1.0)) == ["scale_up"]

    def test_once_trigger_fires_once(self):
        trigger = Trigger("pending", ">", 1.0, "scale_up", once=True)
        loop = ControlLoop("loop", broker=make_broker(), triggers=(trigger,))
        metrics = {
            "mean_backlog": 0.0, "max_backlog": 0.0, "imbalance": 1.0,
            "dead_vms": 0.0, "pending": 5.0, "active_vms": 4.0,
        }
        assert loop.analyze(metrics) == ["scale_up"]
        assert loop.analyze(metrics) == []
