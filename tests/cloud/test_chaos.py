"""Chaos harness: plan generation and the full recovery-comparison suite."""

from __future__ import annotations

import json
import math

import pytest

from repro.cloud.chaos import (
    ChaosConfig,
    demo_storm_timeline,
    generate_fault_plan,
    load_report_rows,
    run_chaos_suite,
    run_storm_suite,
)
from repro.cloud.control import ControlConfig
from repro.cloud.faults import HostFailure, VmFailure, VmSlowdown, validate_fault_plan
from repro.core.rng import spawn_rng
from repro.schedulers import GreedyMinCompletionScheduler, RoundRobinScheduler
from repro.schedulers.online import OnlineGreedyMCT
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.timeline import Timeline


class TestChaosConfig:
    def test_defaults_valid(self):
        config = ChaosConfig()
        assert config.num_anchors == 2

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="factor_window"):
            ChaosConfig(factor_window=(0.5, 1.0))
        with pytest.raises(ValueError, match="fault_window"):
            ChaosConfig(fault_window=(0.0, 0.5))
        with pytest.raises(ValueError, match="recover_fraction"):
            ChaosConfig(recover_fraction=1.5)


class TestGenerateFaultPlan:
    def _scenario(self):
        return heterogeneous_scenario(8, 40, seed=0)

    def test_plan_is_valid_and_sized(self):
        scenario = self._scenario()
        config = ChaosConfig(
            num_vm_failures=2, num_host_failures=1, num_stragglers=2
        )
        plan = generate_fault_plan(
            scenario, 100.0, config, spawn_rng(0, "chaos-test")
        )
        assert len(plan) == 5
        validate_fault_plan(plan, scenario.num_vms)
        assert sum(isinstance(e, VmFailure) for e in plan) == 2
        assert sum(isinstance(e, HostFailure) for e in plan) == 1
        assert sum(isinstance(e, VmSlowdown) for e in plan) == 2
        # Disjoint anchors by construction.
        anchors = [e.vm_index for e in plan]
        assert len(set(anchors)) == len(anchors)

    def test_seeded_reproducibility(self):
        scenario = self._scenario()
        config = ChaosConfig(num_vm_failures=2, num_stragglers=1)
        a = generate_fault_plan(scenario, 50.0, config, spawn_rng(3, "c"))
        b = generate_fault_plan(scenario, 50.0, config, spawn_rng(3, "c"))
        assert a == b

    def test_recover_fraction_controls_downtimes(self):
        scenario = self._scenario()
        config = ChaosConfig(num_vm_failures=4, num_stragglers=0, recover_fraction=0.5)
        plan = generate_fault_plan(scenario, 80.0, config, spawn_rng(1, "c"))
        downtimes = [e.downtime is not None for e in plan]
        assert sum(downtimes) == 2

    def test_whole_fleet_crash_rejected(self):
        scenario = heterogeneous_scenario(4, 10, seed=0)
        config = ChaosConfig(num_vm_failures=4, num_stragglers=0)
        with pytest.raises(ValueError, match="survive"):
            generate_fault_plan(scenario, 10.0, config, spawn_rng(0, "c"))

    def test_empty_config_gives_empty_plan(self):
        config = ChaosConfig(num_vm_failures=0, num_stragglers=0)
        plan = generate_fault_plan(self._scenario(), 10.0, config, spawn_rng(0, "c"))
        assert plan == []


class TestRunChaosSuite:
    def test_suite_completes_and_compares(self):
        scenario = heterogeneous_scenario(6, 48, seed=2)
        schedulers = {
            "rr": RoundRobinScheduler(),
            "greedy": GreedyMinCompletionScheduler(),
        }
        config = ChaosConfig(num_vm_failures=1, num_stragglers=1, recover_fraction=0.0)
        report = run_chaos_suite(
            scenario, schedulers, seeds=(0, 1), config=config
        )
        assert len(report.cells) == 4
        for cell in report.cells:
            # The seeded crash+straggler plan completes every cloudlet (or
            # dead-letters deterministically; with 5 surviving VMs nothing
            # should be abandoned here).
            assert cell.rescheduling_recovery.completed_fraction == 1.0
            assert cell.round_robin_recovery.completed_fraction == 1.0
            assert cell.plan_size == 2
            # Faults never make the run faster than its own baseline.
            assert cell.rescheduling_recovery.makespan_degradation >= 0.999
        degradation = report.mean_degradation("rescheduling")
        assert set(degradation) == {"rr", "greedy"}
        rows = report.to_rows()
        assert len(rows) == 4
        assert {"scheduler", "seed", "rr_degradation", "resched_degradation"} <= set(rows[0])

    def test_same_seed_same_plan_across_schedulers(self):
        scenario = heterogeneous_scenario(6, 30, seed=0)
        report = run_chaos_suite(
            scenario,
            {"rr": RoundRobinScheduler(), "greedy": GreedyMinCompletionScheduler()},
            seeds=(4,),
            config=ChaosConfig(num_vm_failures=1, num_stragglers=1),
        )
        a, b = report.cells
        assert a.plan_size == b.plan_size
        # Identical faults injected: both runs report the same failure count.
        assert a.rescheduling.info["failures"] == b.rescheduling.info["failures"]

    def test_suite_is_reproducible(self):
        scenario = heterogeneous_scenario(5, 25, seed=1)
        kwargs = dict(
            schedulers={"rr": RoundRobinScheduler()},
            seeds=(0,),
            config=ChaosConfig(num_vm_failures=1, num_stragglers=0),
        )
        r1 = run_chaos_suite(scenario, **kwargs)
        r2 = run_chaos_suite(scenario, **kwargs)
        c1, c2 = r1.cells[0], r2.cells[0]
        assert c1.rescheduling.makespan == c2.rescheduling.makespan
        assert c1.rescheduling_recovery == c2.rescheduling_recovery

    def test_round_robin_arm_measures_mttr(self):
        scenario = heterogeneous_scenario(8, 60, seed=0)
        report = run_chaos_suite(
            scenario,
            {"greedy": GreedyMinCompletionScheduler()},
            seeds=(0,),
            config=ChaosConfig(num_host_failures=1, num_stragglers=0),
        )
        cell = report.cells[0]
        assert cell.round_robin_recovery.retries > 0
        # Every blind retry finishes, after its bounce and by the makespan.
        assert 0.0 < cell.round_robin_recovery.mttr <= cell.round_robin.makespan


class TestHardening:
    """Validation added for PR 6: bad windows/plans fail fast and clearly."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_window": (math.nan, 0.5)},
            {"fault_window": (0.1, math.inf)},
            {"downtime_window": (0.3, 0.1)},
            {"duration_window": (-0.2, 0.4)},
            {"factor_window": (0.2, math.nan)},
            {"factor_window": (0.6, 0.2)},
        ],
    )
    def test_non_finite_or_inverted_windows_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)

    @pytest.mark.parametrize("baseline", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_baseline_rejected(self, baseline):
        scenario = heterogeneous_scenario(6, 30, seed=0)
        with pytest.raises(ValueError, match="baseline makespan"):
            generate_fault_plan(
                scenario, baseline, ChaosConfig(), spawn_rng(0, "chaos-test")
            )

    @pytest.mark.parametrize("bad_time", [math.nan, math.inf, -1.0])
    def test_fault_events_reject_non_finite_times(self, bad_time):
        with pytest.raises(ValueError):
            VmFailure(0, bad_time)
        with pytest.raises(ValueError):
            VmSlowdown(0, bad_time, duration=1.0, factor=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_downtime_and_duration_must_be_finite_positive(self, bad):
        with pytest.raises(ValueError):
            VmFailure(0, 1.0, downtime=bad)
        with pytest.raises(ValueError):
            VmSlowdown(0, 1.0, duration=bad, factor=0.5)

    def test_overlapping_anchor_downtimes_rejected(self):
        plan = [VmFailure(0, 1.0, downtime=10.0), VmFailure(0, 5.0, downtime=2.0)]
        with pytest.raises(ValueError, match="before recovering"):
            validate_fault_plan(plan, 4)

    def test_duplicate_unrecovered_failure_rejected(self):
        plan = [VmFailure(0, 1.0), VmFailure(0, 5.0)]
        with pytest.raises(ValueError, match="never recovers"):
            validate_fault_plan(plan, 4)


class TestReportSerialisation:
    def _chaos_report(self):
        scenario = heterogeneous_scenario(5, 25, seed=1)
        return run_chaos_suite(
            scenario,
            {"rr": RoundRobinScheduler()},
            seeds=(0,),
            config=ChaosConfig(num_vm_failures=1, num_stragglers=0),
        )

    def test_chaos_report_round_trips(self, tmp_path):
        report = self._chaos_report()
        path = report.save(tmp_path / "chaos.json")
        payload = load_report_rows(path)
        assert payload["kind"] == "chaos-report"
        assert payload["rows"] == json.loads(json.dumps(report.to_rows()))
        assert payload["config"]["num_vm_failures"] == 1

    def test_load_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"makespan": 4}')
        with pytest.raises(ValueError, match="not a chaos/storm report"):
            load_report_rows(path)
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_report_rows(path)


class TestStormSuite:
    def _suite(self, seeds=(0,)):
        scenario = heterogeneous_scenario(8, 40, seed=3)
        control = ControlConfig(
            cadence=0.5, cooldown=2.0, imbalance_threshold=2.0,
            scale_up_backlog=1.5, standby_vms=2, sla_seconds=30.0,
        )
        return run_storm_suite(
            scenario,
            {"greedy-mct": OnlineGreedyMCT},
            demo_storm_timeline(scenario.num_vms),
            control,
            seeds=seeds,
        )

    def test_cells_carry_three_arms(self):
        report = self._suite()
        (cell,) = report.cells
        assert cell.faults == 3
        assert cell.calm.info["timeline"] == "demo-storm-calm"
        assert cell.uncontrolled.info["timeline"] == "demo-storm"
        assert "control" in cell.controlled.info
        assert "control" not in cell.uncontrolled.info
        assert report.sla_seconds == 30.0  # inherited from the config

    def test_aggregates_and_rows(self):
        report = self._suite()
        rows = report.to_rows()
        assert {"policy", "seed", "controlled_degradation",
                "uncontrolled_degradation"} <= set(rows[0])
        for arm in ("controlled", "uncontrolled"):
            assert math.isfinite(report.mean_degradation(arm))
            assert report.sla_violation_count(arm) >= 0
        with pytest.raises(ValueError, match="unknown storm arm"):
            report.mean_degradation("calm")

    def test_storm_report_round_trips(self, tmp_path):
        report = self._suite()
        payload = load_report_rows(report.save(tmp_path / "storm.json"))
        assert payload["kind"] == "storm-report"
        assert payload["timeline"] == "demo-storm"
        assert set(payload["mean_degradation"]) == {"controlled", "uncontrolled"}

    def test_suite_is_reproducible(self):
        a, b = self._suite(), self._suite()
        assert a.to_rows() == b.to_rows()

    def test_faultless_timeline_rejected(self):
        scenario = heterogeneous_scenario(6, 20, seed=0)
        with pytest.raises(ValueError, match="no fault entries"):
            run_storm_suite(
                scenario,
                {"greedy-mct": OnlineGreedyMCT},
                Timeline(base_rate=5.0),
                ControlConfig(),
            )

    def test_demo_storm_needs_four_vms(self):
        with pytest.raises(ValueError, match="at least 4"):
            demo_storm_timeline(3)
