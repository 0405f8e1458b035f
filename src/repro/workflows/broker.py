"""Dependency-aware workflow execution on the DES engine.

:class:`WorkflowBroker` releases each task only when every parent has
finished and its output has been transferred; :class:`WorkflowSimulation`
wires a workflow + scenario + workflow scheduler into the kernel and
reduces the run to a :class:`WorkflowResult`.

Transfer model: an edge carrying ``data`` MB delays the child by
``data / bw_child`` seconds when parent and child run on different VMs
(zero when co-located or when the child VM has no bandwidth attribute),
matching the Eq. 6 convention of pricing transfers at the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cloud.broker import FleetBroker
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.simulation import (
    build_simulation,
    cloudlet_times,
    run_info,
    timed_schedule,
)
from repro.cloud.vm import Vm
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.workloads.spec import ScenarioSpec
from repro.workflows.dag import WorkflowSpec
from repro.workflows.schedulers import WorkflowScheduler


class WorkflowBroker(FleetBroker):
    """Submits workflow tasks as their dependencies complete."""

    def __init__(
        self,
        name: str,
        workflow: WorkflowSpec,
        scenario: ScenarioSpec,
        vms: list[Vm],
        assignment: np.ndarray,
        vm_placement: dict[int, int],
    ) -> None:
        cloudlets = [
            Cloudlet(
                cloudlet_id=t.task_id,
                length=t.length,
                pes=t.pes,
                file_size=t.file_size,
                output_size=t.output_size,
            )
            for t in workflow.tasks
        ]
        super().__init__(name, vms, cloudlets, vm_placement, assignment)
        self.workflow = workflow
        self.scenario = scenario
        n = workflow.num_tasks
        self._remaining_parents = np.zeros(n, dtype=np.int64)
        for _, v, _ in workflow.edges:
            self._remaining_parents[v] += 1
        self._ready_time = np.zeros(n)
        self.released = np.zeros(n, dtype=bool)
        self.transfer_seconds_total = 0.0

    def _on_fleet_ready(self) -> None:
        for t in self.workflow.entry_tasks():
            self._release(t)

    def _release(self, task: int) -> None:
        """Schedule task submission at its data-ready time."""
        if self.released[task]:
            raise RuntimeError(f"task {task} released twice")
        self.released[task] = True
        delay = max(0.0, self._ready_time[task] - self.now)
        self.schedule_self(delay, EventTag.TIMER, data=task)

    def _on_timer(self, task: int) -> None:
        """``task``'s inputs are ready: submit it to its VM."""
        self.submit(task, int(self.assignment[task]))

    def _transfer_seconds(self, parent: int, child: int, data: float) -> float:
        if self.assignment[parent] == self.assignment[child]:
            return 0.0
        bw = self.scenario.vms[int(self.assignment[child])].bw
        return data / bw if bw > 0 else 0.0

    def _on_finish(self, cloudlet: Cloudlet) -> None:
        task = cloudlet.cloudlet_id
        for child, data in self.workflow.children(task):
            transfer = self._transfer_seconds(task, child, data)
            self.transfer_seconds_total += transfer
            self._ready_time[child] = max(
                self._ready_time[child], cloudlet.finish_time + transfer
            )
            self._remaining_parents[child] -= 1
            if self._remaining_parents[child] == 0:
                self._release(child)


def workflow_costs(
    workflow: WorkflowSpec, scenario: ScenarioSpec, assignment: np.ndarray
) -> np.ndarray:
    """Per-task processing cost under the Table VII model.

    Same pricing as the batch metric (Section VI-C4): CPU seconds at the
    datacenter CPU rate, plus the assigned VM's RAM/storage footprint and
    the task's file transfer priced at the datacenter unit costs.
    """
    arr = scenario.arrays()
    vm = np.asarray(assignment, dtype=np.int64)
    dc = arr.vm_datacenter[vm]
    lengths = np.array([t.length for t in workflow.tasks])
    files = np.array([t.file_size + t.output_size for t in workflow.tasks])
    return (
        arr.dc_cost_per_cpu[dc] * lengths / arr.vm_mips[vm]
        + arr.dc_cost_per_mem[dc] * arr.vm_ram[vm]
        + arr.dc_cost_per_storage[dc] * arr.vm_size[vm]
        + arr.dc_cost_per_bw[dc] * files
    )


@dataclass
class WorkflowResult:
    """Outcome of one workflow execution."""

    workflow_name: str
    scheduler_name: str
    #: wall-clock seconds the workflow scheduler spent deciding.
    scheduling_time: float
    #: simulated completion time of the last task.
    makespan: float
    #: critical-path lower bound at the fastest VM's speed.
    critical_path_bound: float
    #: serial execution time on the fastest VM (speedup denominator).
    serial_time: float
    assignment: np.ndarray
    start_times: np.ndarray
    finish_times: np.ndarray
    #: total simulated seconds spent on cross-VM data transfers.
    transfer_seconds: float
    #: Table VII processing cost summed over tasks.
    total_cost: float = 0.0
    events_processed: int = 0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Serial-on-fastest-VM time over achieved makespan."""
        return self.serial_time / self.makespan if self.makespan > 0 else float("inf")

    @property
    def efficiency_vs_bound(self) -> float:
        """Critical-path bound over achieved makespan (1.0 = optimal)."""
        return self.critical_path_bound / self.makespan if self.makespan > 0 else 1.0


class WorkflowSimulation:
    """Run one workflow scheduler on (workflow, scenario) through the DES."""

    def __init__(
        self,
        workflow: WorkflowSpec,
        scenario: ScenarioSpec,
        scheduler: WorkflowScheduler,
    ) -> None:
        self.workflow = workflow
        self.scenario = scenario
        self.scheduler = scheduler

    def run(self) -> WorkflowResult:
        workflow, scenario = self.workflow, self.scenario
        telemetry_before = _TEL.snapshot() if _TEL.enabled else None
        assignment, scheduling_time = timed_schedule(self.scheduler, workflow, scenario)

        with _TEL.span("sim.build"):
            env = build_simulation(scenario)
            broker = WorkflowBroker(
                name="workflow-broker",
                workflow=workflow,
                scenario=scenario,
                vms=env.vms,
                assignment=assignment,
                vm_placement=env.vm_placement,
            )
            env.sim.register(broker)
        with _TEL.span("sim.execute"):
            env.sim.run()
        if not broker.all_finished:
            raise RuntimeError("workflow drained with unfinished tasks (dependency bug)")

        _, start, finish = cloudlet_times(broker.cloudlets)
        fastest = float(max(v.mips * v.pes for v in scenario.vms))
        serial = float(sum(t.length for t in workflow.tasks) / fastest)
        return WorkflowResult(
            workflow_name=workflow.name,
            scheduler_name=self.scheduler.name,
            scheduling_time=scheduling_time,
            makespan=float(finish.max()),
            critical_path_bound=workflow.critical_path_seconds(fastest),
            serial_time=serial,
            assignment=assignment,
            start_times=start,
            finish_times=finish,
            transfer_seconds=broker.transfer_seconds_total,
            total_cost=float(workflow_costs(workflow, scenario, assignment).sum()),
            events_processed=env.sim.events_processed,
            info=run_info(
                "workflow-des", scenario, self.scheduler, None, telemetry_before, {},
                workflow=workflow.name,
            ),
        )


__all__ = ["WorkflowBroker", "WorkflowResult", "WorkflowSimulation", "workflow_costs"]
