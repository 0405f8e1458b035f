"""Virtual machines.

A :class:`Vm` mirrors CloudSim's ``Vm``: a bundle of MIPS capacity, PEs,
RAM, bandwidth and image size, executing cloudlets through a per-VM
cloudlet scheduler (space- or time-shared).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cloud.cloudlet_scheduler import CloudletScheduler, CloudletSchedulerSpaceShared
from repro.core.checks import check_number

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.host import Host


class Vm:
    """A virtual machine.

    Parameters
    ----------
    vm_id:
        Unique id within a simulation.
    mips:
        Per-PE capacity in million instructions per second (``vmMips``).
    pes:
        Number of virtual processing elements (``vmPesNumber``).
    ram:
        Memory in MB (``vmRam``).
    bw:
        Bandwidth in Mbit/s (``vmBw``).
    size:
        Image/storage size in MB (``vmSize``).
    cloudlet_scheduler:
        Execution model; defaults to a fresh space-shared scheduler,
        matching the CloudSim default used by the paper.
    """

    def __init__(
        self,
        vm_id: int,
        mips: float,
        pes: int = 1,
        ram: float = 512.0,
        bw: float = 500.0,
        size: float = 5000.0,
        cloudlet_scheduler: CloudletScheduler | None = None,
    ) -> None:
        check_number("mips", mips, gt=0)
        check_number("pes", pes, ge=1, integer=True)
        for name, value in (("ram", ram), ("bw", bw), ("size", size)):
            check_number(name, value, ge=0)
        self.vm_id = vm_id
        self.mips = float(mips)
        self.pes = int(pes)
        self.ram = float(ram)
        self.bw = float(bw)
        self.size = float(size)
        self.host: "Host | None" = None
        self.datacenter_id = -1
        if cloudlet_scheduler is None:
            cloudlet_scheduler = CloudletSchedulerSpaceShared()
        self.cloudlet_scheduler = cloudlet_scheduler
        self.cloudlet_scheduler.bind(mips=self.mips, pes=self.pes)

    @property
    def total_mips(self) -> float:
        """Aggregate capacity across the VM's PEs."""
        return self.mips * self.pes

    @property
    def is_created(self) -> bool:
        """True once the VM has been placed on a host."""
        return self.host is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vm(id={self.vm_id}, mips={self.mips}, pes={self.pes}, "
            f"ram={self.ram}, bw={self.bw}, size={self.size})"
        )


__all__ = ["Vm"]
