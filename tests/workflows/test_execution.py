"""Workflow schedulers and dependency-aware execution."""

from __future__ import annotations

import hashlib

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


class TestWorkflowPins:
    """The workflow broker's event order, pinned exactly.

    Each pin is the SHA-256 of (start times, finish times) plus the
    kernel's processed-event count and the summed transfer seconds, for
    both workflow schedulers on a 6-VM heterogeneous scenario.
    """

    WORKFLOWS = {
        "random": lambda seed: random_workflow(24, edge_probability=0.2, seed=seed),
        "layered": lambda seed: layered_workflow(4, 4, seed=seed),
        "fork-join": lambda seed: fork_join_workflow(8, seed=seed),
    }
    SCHEDULERS = {"heft": HeftScheduler, "roundrobin": RoundRobinWorkflowScheduler}

    @pytest.mark.parametrize(
        "scheduler, workflow, seed, sha256, events, transfer",
        [
            ("heft", "random", 0,
             "e9f0e02c5c7d726e275c2ecbfb2549523e4089471743c752894c55af8cb0e1d5",
             108, 7.656066581689705),
            ("heft", "random", 1,
             "3a20339b4a35f2202966f5b9f691ebaf50cbe041c69ce1941951a1128917cef8",
             108, 7.428666549173547),
            ("heft", "layered", 0,
             "e3a13445ea28f2f311c14856d224fe590b9e29ffc58c846e876baa461537253b",
             76, 7.842531264533042),
            ("heft", "layered", 1,
             "eeb17fa9484abaf3c64f76c552e9298add4fd81abdf2d5798ca29a86fb2b51ed",
             76, 6.752078119448675),
            ("heft", "fork-join", 0,
             "c59a9c2887f2034da1e70e538a953c3d85c6da8f807aff9af7f18989a38b200e",
             52, 2.2909092344522253),
            ("heft", "fork-join", 1,
             "92ba1fb521996f1aa467b5a0722302dc78e5491da7b503135f807bc8a4b5a577",
             52, 2.403129385526605),
            ("roundrobin", "random", 0,
             "6d334393036a192dba75c64b7da505163cf3bf75dc9e1810fcec00c39a7a5f4f",
             108, 10.303831834157481),
            ("roundrobin", "random", 1,
             "5375f7c762e129e2ea5f514b1bf3515cddf24c5d93eb05b227e93659170bb2df",
             108, 9.24015126158501),
            ("roundrobin", "layered", 0,
             "1594026bdc4538dfdbbd1f0914200bfd7999949a350248b2b35c7d1a065e1e69",
             76, 8.790366461195266),
            ("roundrobin", "layered", 1,
             "203aade7e70e3712a839146b7f70fcacc23384b6931c9ede9b8ca22b2ac64745",
             76, 8.58362118969191),
            ("roundrobin", "fork-join", 0,
             "125782f24c94baaadee5d104ed39db1e12b5ecd890ec2d9aa11f117cf645bb4f",
             52, 2.7500976530626446),
            ("roundrobin", "fork-join", 1,
             "fecdf6f9c1517a647357f88f5749aece32ed0e1b7fcb2e79d4153dc12c0f28da",
             52, 2.636324591101353),
        ],
    )
    def test_event_order_pinned(self, scheduler, workflow, seed, sha256, events, transfer):
        result = WorkflowSimulation(
            self.WORKFLOWS[workflow](seed),
            heterogeneous_scenario(6, 10, seed=3),
            self.SCHEDULERS[scheduler](),
        ).run()
        digest = hashlib.sha256()
        digest.update(np.asarray(result.start_times, dtype=np.float64).tobytes())
        digest.update(np.asarray(result.finish_times, dtype=np.float64).tobytes())
        assert digest.hexdigest() == sha256
        assert result.events_processed == events
        assert result.transfer_seconds == transfer


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

