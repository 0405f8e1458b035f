"""Deadline-aware batch scheduler (EDF + minimum completion time).

Extension beyond the paper's four algorithms, motivated by its
introduction's "deadlines for hard real-time applications": cloudlets are
considered in earliest-deadline-first order, each placed on the VM whose
queue finishes it soonest.  A cloudlet that would still miss its deadline
is placed on the earliest-finishing VM anyway (work-conserving).

Deadlines come from the context extension (``deadlines=`` constructor
argument aligned with the scenario's cloudlets) or are synthesized with a
slack factor when none are given, so the scheduler composes with every
existing scenario generator.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import check_number
from repro.metrics.sla import relative_deadlines
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult


class DeadlineAwareScheduler(Scheduler):
    """EDF-ordered minimum-completion-time placement.

    Parameters
    ----------
    deadlines:
        Absolute per-cloudlet deadlines, index-aligned with the scenario.
        ``None`` synthesizes them via :func:`relative_deadlines`.
    slack_factor:
        Slack used when synthesizing deadlines.
    """

    def __init__(self, deadlines=None, slack_factor: float = 4.0) -> None:
        self.deadlines = None if deadlines is None else np.asarray(deadlines, dtype=float)
        self.slack_factor = check_number("slack_factor", slack_factor, gt=0)

    @property
    def name(self) -> str:
        return "deadline-edf"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        arr = context.arrays
        n, m = context.num_cloudlets, context.num_vms
        if self.deadlines is not None:
            if self.deadlines.shape != (n,):
                raise ValueError(
                    f"deadlines shape {self.deadlines.shape} != ({n},)"
                )
            deadlines = self.deadlines
        else:
            deadlines = relative_deadlines(
                arr.cloudlet_length, float(arr.vm_mips.mean()), self.slack_factor
            )

        ready = np.zeros(m)
        inv_capacity = 1.0 / (arr.vm_mips * arr.vm_pes)
        assignment = np.empty(n, dtype=np.int64)
        predicted_misses = 0
        for i in np.argsort(deadlines, kind="stable"):
            completion = ready + arr.cloudlet_length[i] * inv_capacity
            j = int(np.argmin(completion))
            assignment[i] = j
            ready[j] = completion[j]
            if completion[j] > deadlines[i] + 1e-9:
                predicted_misses += 1
        return SchedulingResult(
            assignment=assignment,
            scheduler_name=self.name,
            info={
                "predicted_misses": predicted_misses,
                "slack_factor": self.slack_factor,
                "synthesized_deadlines": self.deadlines is None,
            },
        )


__all__ = ["DeadlineAwareScheduler"]
