"""CloudSimulation façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.simulation import (
    CloudSimulation,
    build_hosts_for_datacenter,
    cloudlet_costs,
    quick_run,
)
from repro.schedulers import RoundRobinScheduler
from repro.schedulers.random_assign import RandomScheduler


class TestRun:
    def test_round_robin_on_tiny(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        assert result.scheduler_name == "basetest"
        assert result.num_cloudlets == 8
        assert result.makespan > 0
        assert result.scheduling_time >= 0
        assert result.time_imbalance >= 0
        assert result.total_cost > 0
        np.testing.assert_array_equal(result.assignment, np.arange(8) % 4)

    def test_exec_times_match_length_over_mips(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        arr = tiny_scenario.arrays()
        expected = arr.cloudlet_length / arr.vm_mips[result.assignment]
        np.testing.assert_allclose(result.exec_times, expected, rtol=1e-9)

    def test_makespan_equals_latest_finish(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        assert result.makespan == pytest.approx(
            result.finish_times.max() - result.start_times.min()
        )

    def test_total_cost_matches_vectorised(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        costs = cloudlet_costs(tiny_scenario.arrays(), result.assignment)
        assert result.total_cost == pytest.approx(costs.sum())

    def test_time_shared_model_runs(self, tiny_scenario):
        result = CloudSimulation(
            tiny_scenario, RoundRobinScheduler(), seed=0, execution_model="time-shared"
        ).run()
        assert result.info["execution_model"] == "time-shared"
        # Per-VM completion is identical to space-shared, so the makespan
        # matches the space-shared run.
        space = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        assert result.makespan == pytest.approx(space.makespan)

    def test_unknown_execution_model_rejected(self, tiny_scenario):
        with pytest.raises(ValueError, match="execution model"):
            CloudSimulation(tiny_scenario, RoundRobinScheduler(), execution_model="magic")

    def test_summary_keys(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        assert set(result.summary()) == {
            "scheduling_time_s",
            "makespan",
            "time_imbalance",
            "total_cost",
        }

    def test_derived_metrics(self, tiny_scenario):
        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        assert result.average_waiting_time >= 0
        assert result.throughput > 0

    def test_deterministic_for_fixed_seed(self, small_hetero):
        a = CloudSimulation(small_hetero, RandomScheduler(), seed=11).run()
        b = CloudSimulation(small_hetero, RandomScheduler(), seed=11).run()
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.makespan == b.makespan

    def test_different_seed_changes_random_assignment(self, small_hetero):
        a = CloudSimulation(small_hetero, RandomScheduler(), seed=1).run()
        b = CloudSimulation(small_hetero, RandomScheduler(), seed=2).run()
        assert not np.array_equal(a.assignment, b.assignment)


class TestQuickRun:
    def test_heterogeneous(self):
        result = quick_run(RoundRobinScheduler(), num_vms=5, num_cloudlets=20, seed=0)
        assert result.num_cloudlets == 20

    def test_homogeneous(self):
        result = quick_run(
            RoundRobinScheduler(),
            num_vms=5,
            num_cloudlets=20,
            scenario_kind="homogeneous",
            seed=0,
        )
        # 4 cloudlets per VM x 0.25 s each.
        assert result.makespan == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="scenario kind"):
            quick_run(RoundRobinScheduler(), scenario_kind="weird")


class TestHostSizing:
    def test_hosts_cover_vm_demand(self, small_hetero):
        for dc_idx in range(small_hetero.num_datacenters):
            hosts = build_hosts_for_datacenter(small_hetero, dc_idx)
            vms = [small_hetero.vms[i] for i in small_hetero.vms_in_datacenter(dc_idx)]
            total_pes = sum(h.pes for h in hosts)
            assert total_pes >= sum(v.pes for v in vms)

    def test_undersized_host_mips_rejected(self, tiny_scenario):
        import dataclasses

        bad_dc = dataclasses.replace(tiny_scenario.datacenters[0], host_mips=100.0)
        bad = dataclasses.replace(
            tiny_scenario, datacenters=(bad_dc, tiny_scenario.datacenters[1])
        )
        with pytest.raises(ValueError, match="MIPS"):
            build_hosts_for_datacenter(bad, 0)


class TestResultPersistence:
    def test_round_trip(self, tiny_scenario, tmp_path):
        from repro.cloud.simulation import SimulationResult

        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        path = result.save(tmp_path / "sub" / "result.json")
        restored = SimulationResult.load(path)
        assert restored.scheduler_name == result.scheduler_name
        assert restored.makespan == result.makespan
        assert restored.total_cost == result.total_cost
        np.testing.assert_array_equal(restored.assignment, result.assignment)
        np.testing.assert_allclose(restored.finish_times, result.finish_times)
        assert restored.summary() == result.summary()

    def test_unknown_version_rejected(self, tiny_scenario, tmp_path):
        import json

        from repro.cloud.simulation import SimulationResult

        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        path = result.save(tmp_path / "r.json")
        data = json.loads(path.read_text())
        data["format_version"] = 42
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            SimulationResult.load(path)

    def test_non_json_info_dropped_gracefully(self, tiny_scenario, tmp_path):
        from repro.cloud.simulation import SimulationResult

        result = CloudSimulation(tiny_scenario, RoundRobinScheduler(), seed=0).run()
        result.info["array"] = np.zeros(3)  # not JSON-serialisable
        result.info["note"] = "kept"
        path = result.save(tmp_path / "r.json")
        restored = SimulationResult.load(path)
        assert "array" not in restored.info
        assert restored.info["note"] == "kept"
