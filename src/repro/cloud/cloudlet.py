"""Cloudlets — the unit of work submitted to the cloud.

A cloudlet mirrors CloudSim's ``Cloudlet``: a task with a computational
length in million instructions (MI), input/output file sizes and a PE
requirement.  The paper's workloads (Tables IV and VI) are single-PE
cloudlets with lengths 250 MI (homogeneous) or 1 000-20 000 MI
(heterogeneous).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.checks import check_number


class CloudletStatus(enum.Enum):
    """Lifecycle of a cloudlet."""

    CREATED = "created"
    QUEUED = "queued"       #: accepted by a VM, waiting for a free PE
    RUNNING = "running"     #: executing on a PE
    SUCCESS = "success"     #: finished
    FAILED = "failed"       #: rejected (e.g. VM never materialised)


@dataclass
class Cloudlet:
    """A schedulable task.

    Attributes
    ----------
    cloudlet_id:
        Unique id within a simulation.
    length:
        Computational size in MI (the paper's ``cLength``).
    pes:
        Number of processing elements required (``cPesNumber``).
    file_size:
        Input size in MB (``cFileSize``); feeds the ACO heuristic (Eq. 6)
        and the bandwidth cost term.
    output_size:
        Output size in MB (``cOutputSize``).
    """

    cloudlet_id: int
    length: float
    pes: int = 1
    file_size: float = 0.0
    output_size: float = 0.0

    # -- runtime state (filled in by the simulator) -------------------------
    status: CloudletStatus = field(default=CloudletStatus.CREATED, compare=False)
    vm_id: int = field(default=-1, compare=False)
    datacenter_id: int = field(default=-1, compare=False)
    submission_time: float = field(default=-1.0, compare=False)
    exec_start_time: float = field(default=-1.0, compare=False)
    finish_time: float = field(default=-1.0, compare=False)
    #: MI still to execute; maintained by the cloudlet scheduler.
    remaining_length: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        check_number("length", self.length, gt=0)
        check_number("pes", self.pes, ge=1, integer=True)
        if self.file_size < 0 or self.output_size < 0:
            raise ValueError("file sizes must be non-negative")
        self.remaining_length = float(self.length)

    # -- derived quantities ---------------------------------------------------

    @property
    def is_finished(self) -> bool:
        return self.status is CloudletStatus.SUCCESS

    @property
    def wall_execution_time(self) -> float:
        """Time spent from execution start to finish (the paper's per-task
        execution time used by the imbalance metric).

        Returns ``nan`` until the cloudlet finishes.
        """
        if self.finish_time < 0 or self.exec_start_time < 0:
            return float("nan")
        return self.finish_time - self.exec_start_time

    @property
    def waiting_time(self) -> float:
        """Queueing delay between submission and execution start."""
        if self.exec_start_time < 0 or self.submission_time < 0:
            return float("nan")
        return self.exec_start_time - self.submission_time

    def mark_submitted(self, time: float, vm_id: int, datacenter_id: int) -> None:
        """Record acceptance by a datacenter.

        The submission timestamp is only set once, so a retry after a VM
        failure keeps the original submission (waiting-time metrics then
        include the recovery delay).
        """
        if self.submission_time < 0:
            self.submission_time = time
        self.vm_id = vm_id
        self.datacenter_id = datacenter_id
        self.status = CloudletStatus.QUEUED

    def mark_running(self, time: float) -> None:
        """Record the moment a PE starts executing the cloudlet."""
        if self.exec_start_time < 0:
            self.exec_start_time = time
        self.status = CloudletStatus.RUNNING

    def mark_finished(self, time: float) -> None:
        """Record completion."""
        self.finish_time = time
        self.remaining_length = 0.0
        self.status = CloudletStatus.SUCCESS

    def reset_for_retry(self) -> None:
        """Discard all progress so the cloudlet can be resubmitted.

        Used after a VM failure: partial work is lost, but the original
        submission time is preserved so waiting-time metrics reflect the
        recovery delay.
        """
        self.remaining_length = float(self.length)
        self.exec_start_time = -1.0
        self.finish_time = -1.0
        self.status = CloudletStatus.CREATED
        self.vm_id = -1
        self.datacenter_id = -1


__all__ = ["Cloudlet", "CloudletStatus"]
