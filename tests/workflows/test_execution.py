"""Workflow schedulers and dependency-aware execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workflows.broker import WorkflowSimulation
from repro.workflows.dag import (
    WorkflowSpec,
    WorkflowTask,
    fork_join_workflow,
    layered_workflow,
    random_workflow,
)
from repro.workflows.schedulers import HeftScheduler, RoundRobinWorkflowScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario


def chain(lengths=(1000.0, 2000.0, 3000.0), data=50.0) -> WorkflowSpec:
    tasks = tuple(
        WorkflowTask(task_id=i, length=float(length)) for i, length in enumerate(lengths)
    )
    edges = tuple((i, i + 1, data) for i in range(len(lengths) - 1))
    return WorkflowSpec(name="chain", tasks=tasks, edges=edges)


class TestSchedulers:
    def test_round_robin_valid(self):
        wf = random_workflow(20, seed=1)
        sc = heterogeneous_scenario(5, 10, seed=1)
        assignment = RoundRobinWorkflowScheduler().schedule_checked(wf, sc)
        assert assignment.shape == (20,)

    def test_heft_valid_and_deterministic(self):
        wf = random_workflow(20, seed=1)
        sc = heterogeneous_scenario(5, 10, seed=1)
        a = HeftScheduler().schedule_checked(wf, sc)
        b = HeftScheduler().schedule_checked(wf, sc)
        np.testing.assert_array_equal(a, b)

    def test_heft_chain_prefers_colocation_on_fastest(self):
        # A pure chain has no parallelism: HEFT should put everything on
        # the fastest VM (no transfer penalties, max speed).
        wf = chain()
        sc = heterogeneous_scenario(6, 10, seed=2)
        assignment = HeftScheduler().schedule_checked(wf, sc)
        fastest = int(np.argmax(sc.arrays().vm_mips))
        assert (assignment == fastest).all()

    def test_bad_assignment_shape_detected(self):
        wf = random_workflow(5, seed=0)
        sc = heterogeneous_scenario(4, 5, seed=0)

        class Broken(RoundRobinWorkflowScheduler):
            def schedule(self, workflow, scenario):
                return np.zeros(3, dtype=np.int64)

        with pytest.raises(ValueError, match="shape"):
            Broken().schedule_checked(wf, sc)


class TestExecution:
    def test_chain_respects_dependencies_and_transfers(self):
        wf = chain(lengths=(1000.0, 1000.0), data=500.0)
        sc = homogeneous_scenario(4, 4, seed=0)  # 1000 mips, 500 bw VMs

        class SplitScheduler(RoundRobinWorkflowScheduler):
            def schedule(self, workflow, scenario):
                return np.array([0, 1], dtype=np.int64)

        result = WorkflowSimulation(wf, sc, SplitScheduler()).run()
        # task0: [0, 1]; transfer 500 MB / 500 bw = 1 s; task1: [2, 3].
        assert result.finish_times[0] == pytest.approx(1.0)
        assert result.start_times[1] == pytest.approx(2.0)
        assert result.makespan == pytest.approx(3.0)
        assert result.transfer_seconds == pytest.approx(1.0)

    def test_colocated_chain_has_no_transfer(self):
        wf = chain(lengths=(1000.0, 1000.0), data=500.0)
        sc = homogeneous_scenario(4, 4, seed=0)

        class Colocate(RoundRobinWorkflowScheduler):
            def schedule(self, workflow, scenario):
                return np.zeros(2, dtype=np.int64)

        result = WorkflowSimulation(wf, sc, Colocate()).run()
        assert result.makespan == pytest.approx(2.0)
        assert result.transfer_seconds == 0.0

    @pytest.mark.parametrize(
        "workflow_factory",
        [
            lambda: random_workflow(30, edge_probability=0.15, seed=4),
            lambda: layered_workflow(4, 3, seed=4),
            lambda: fork_join_workflow(8, seed=4),
        ],
    )
    def test_start_after_all_parents_finish(self, workflow_factory):
        wf = workflow_factory()
        sc = heterogeneous_scenario(6, 10, seed=3)
        result = WorkflowSimulation(wf, sc, HeftScheduler()).run()
        for u, v, _ in wf.edges:
            assert result.start_times[v] >= result.finish_times[u] - 1e-9

    def test_makespan_at_least_critical_path(self):
        wf = random_workflow(25, edge_probability=0.2, seed=6)
        sc = heterogeneous_scenario(8, 10, seed=6)
        result = WorkflowSimulation(wf, sc, HeftScheduler()).run()
        assert result.makespan >= result.critical_path_bound - 1e-9
        assert 0 < result.efficiency_vs_bound <= 1.0 + 1e-9

    def test_heft_beats_round_robin_on_random_dags(self):
        wins = 0
        for seed in range(5):
            wf = random_workflow(40, edge_probability=0.1, seed=seed)
            sc = heterogeneous_scenario(8, 10, seed=seed)
            heft = WorkflowSimulation(wf, sc, HeftScheduler()).run()
            rr = WorkflowSimulation(wf, sc, RoundRobinWorkflowScheduler()).run()
            if heft.makespan < rr.makespan:
                wins += 1
        assert wins >= 4

    def test_speedup_reported(self):
        wf = fork_join_workflow(10, seed=2)
        sc = heterogeneous_scenario(10, 10, seed=2)
        result = WorkflowSimulation(wf, sc, HeftScheduler()).run()
        assert result.speedup > 1.0
        assert result.scheduling_time >= 0
        assert result.events_processed > 0

    def test_single_task_workflow(self):
        wf = WorkflowSpec(
            name="solo", tasks=(WorkflowTask(task_id=0, length=1000.0),), edges=()
        )
        sc = homogeneous_scenario(2, 2, seed=0)
        result = WorkflowSimulation(wf, sc, HeftScheduler()).run()
        assert result.makespan == pytest.approx(1.0)


class TestWorkflowCosts:
    def test_costs_positive_and_assignment_sensitive(self):
        from repro.workflows.broker import workflow_costs

        wf = random_workflow(20, edge_probability=0.1, seed=3)
        sc = heterogeneous_scenario(8, 10, seed=1)
        cheap_like = np.zeros(20, dtype=np.int64)
        costs = workflow_costs(wf, sc, cheap_like)
        assert costs.shape == (20,)
        assert (costs > 0).all()

    def test_result_total_cost_matches_helper(self):
        from repro.workflows.broker import workflow_costs

        wf = random_workflow(20, edge_probability=0.1, seed=3)
        sc = heterogeneous_scenario(8, 10, seed=1)
        result = WorkflowSimulation(wf, sc, HeftScheduler()).run()
        assert result.total_cost == pytest.approx(
            workflow_costs(wf, sc, result.assignment).sum()
        )

