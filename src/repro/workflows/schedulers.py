"""Workflow (DAG) schedulers.

Static list schedulers producing a task→VM assignment before execution:

* :class:`RoundRobinWorkflowScheduler` — cyclic baseline;
* :class:`HeftScheduler` — Heterogeneous Earliest Finish Time (Topcuoglu
  et al.), the standard against which the cited cloud workflow works
  evaluate.  Tasks are ranked by *upward rank* (mean execution + mean
  communication along the longest downstream path) and placed, in rank
  order, on the VM minimising their earliest finish time, accounting for
  data-transfer delays from already-placed parents.

The schedulers are deliberately insertion-free (a VM executes its tasks in
placement order); this matches the space-shared FIFO execution model of the
DES broker, so predicted and simulated finish times line up exactly on
single-PE fleets.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.workloads.spec import ScenarioSpec
from repro.workflows.dag import WorkflowSpec


class WorkflowScheduler(abc.ABC):
    """Maps every workflow task to a VM index."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Registry-style scheduler name."""

    @abc.abstractmethod
    def schedule(self, workflow: WorkflowSpec, scenario: ScenarioSpec) -> np.ndarray:
        """Return an ``int64`` array: task index → VM index."""

    def schedule_checked(self, workflow: WorkflowSpec, scenario: ScenarioSpec) -> np.ndarray:
        assignment = np.asarray(self.schedule(workflow, scenario), dtype=np.int64)
        if assignment.shape != (workflow.num_tasks,):
            raise ValueError(
                f"assignment shape {assignment.shape} != ({workflow.num_tasks},)"
            )
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= scenario.num_vms
        ):
            raise ValueError("assignment contains out-of-range VM indices")
        return assignment


class RoundRobinWorkflowScheduler(WorkflowScheduler):
    """Cyclic placement in topological order."""

    @property
    def name(self) -> str:
        return "workflow-roundrobin"

    def schedule(self, workflow: WorkflowSpec, scenario: ScenarioSpec) -> np.ndarray:
        order = workflow.topological_order()
        assignment = np.empty(workflow.num_tasks, dtype=np.int64)
        for position, task in enumerate(order):
            assignment[task] = position % scenario.num_vms
        return assignment


class HeftScheduler(WorkflowScheduler):
    """Heterogeneous Earliest Finish Time."""

    @property
    def name(self) -> str:
        return "heft"

    def schedule(self, workflow: WorkflowSpec, scenario: ScenarioSpec) -> np.ndarray:
        arr = scenario.arrays()
        capacity = arr.vm_mips * arr.vm_pes  # (m,)
        mean_capacity = float(capacity.mean())
        mean_bw = float(arr.vm_bw[arr.vm_bw > 0].mean()) if (arr.vm_bw > 0).any() else 0.0

        ranks = self._upward_ranks(workflow, mean_capacity, mean_bw)
        order = sorted(range(workflow.num_tasks), key=lambda t: -ranks[t])

        m = scenario.num_vms
        vm_ready = np.zeros(m)
        finish = np.zeros(workflow.num_tasks)
        assignment = np.full(workflow.num_tasks, -1, dtype=np.int64)
        parents = {
            t: list(workflow.parents(t)) for t in range(workflow.num_tasks)
        }
        for t in order:
            exec_times = workflow.tasks[t].length / capacity  # (m,)
            # Data-ready time on each VM given already-placed parents.
            ready = vm_ready.copy()
            for parent, data in parents[t]:
                if assignment[parent] < 0:
                    raise RuntimeError(
                        "HEFT rank order placed a child before its parent; "
                        "workflow ranks are inconsistent"
                    )
                arrival = np.where(
                    np.arange(m) == assignment[parent],
                    finish[parent],
                    finish[parent]
                    + np.where(arr.vm_bw > 0, data / np.maximum(arr.vm_bw, 1e-12), 0.0),
                )
                ready = np.maximum(ready, arrival)
            eft = ready + exec_times
            j = int(np.argmin(eft))
            assignment[t] = j
            finish[t] = eft[j]
            vm_ready[j] = eft[j]
        return assignment

    @staticmethod
    def _upward_ranks(
        workflow: WorkflowSpec, mean_capacity: float, mean_bw: float
    ) -> np.ndarray:
        """Classic HEFT upward rank with mean costs."""
        ranks = np.zeros(workflow.num_tasks)
        children = {
            t: list(workflow.children(t)) for t in range(workflow.num_tasks)
        }
        for t in reversed(workflow.topological_order()):
            mean_exec = workflow.tasks[t].length / mean_capacity
            downstream = 0.0
            for child, data in children[t]:
                comm = data / mean_bw if mean_bw > 0 else 0.0
                downstream = max(downstream, comm + ranks[child])
            ranks[t] = mean_exec + downstream
        return ranks


__all__ = [
    "WorkflowScheduler",
    "RoundRobinWorkflowScheduler",
    "HeftScheduler",
]
