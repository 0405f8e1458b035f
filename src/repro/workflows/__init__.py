"""Workflow (DAG) scheduling extension.

The paper's related work is dominated by *workflow* scheduling — PSO for
workflow applications (Pandey et al. [18]), deadline-based workflow
provisioning (Rodriguez & Buyya [23]), QoS-constrained workflows (Chen &
Zhang [3]).  This subpackage provides the substrate those works assume:

* :mod:`repro.workflows.dag` — an immutable DAG workload model on top of
  ``networkx`` plus generators (layered, fork-join, random);
* :mod:`repro.workflows.schedulers` — list schedulers for DAGs, including
  HEFT (Heterogeneous Earliest Finish Time);
* :mod:`repro.workflows.broker` — a dependency-aware broker that releases
  each task into the DES only when its parents have completed and their
  output data has been transferred.
"""

from repro.workflows.broker import WorkflowResult, WorkflowSimulation, workflow_costs
from repro.workflows.dag import (
    WorkflowSpec,
    WorkflowTask,
    fork_join_workflow,
    layered_workflow,
    random_workflow,
)
from repro.workflows.schedulers import (
    HeftScheduler,
    RoundRobinWorkflowScheduler,
    WorkflowScheduler,
)

__all__ = [
    "WorkflowTask",
    "WorkflowSpec",
    "layered_workflow",
    "fork_join_workflow",
    "random_workflow",
    "WorkflowScheduler",
    "HeftScheduler",
    "RoundRobinWorkflowScheduler",
    "WorkflowSimulation",
    "WorkflowResult",
    "workflow_costs",
]
