"""Datacenter characteristics and the CloudSim cost model.

Encodes Table VII of the paper: each datacenter carries unit prices for
memory, storage, bandwidth and processing.  :meth:`DatacenterCharacteristics
.cloudlet_cost` prices one cloudlet execution the way the paper's
"Processing Cost" metric (Section VI-C4, Fig. 6d) describes: the cost of the
MIPS consumed plus the RAM, storage and bandwidth the assigned VM uses on
that datacenter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.cloudlet import Cloudlet
from repro.cloud.vm import Vm


@dataclass(frozen=True, slots=True)
class DatacenterCharacteristics:
    """Immutable pricing/description record for a datacenter.

    Attributes
    ----------
    cost_per_mem:
        $/MB of VM RAM per executed cloudlet (Table VII ``CostPerMemeory``,
        0.01-0.05 in the heterogeneous setup).
    cost_per_storage:
        $/MB of VM image storage (``CostPerStorage``, 0.001-0.004).
    cost_per_bw:
        $/MB transferred (``CostPerBandwidth``, 0.01-0.05).
    cost_per_cpu:
        $/second of PE time (``CostPerPrcessing``, fixed at 3).
    arch, os, vmm, timezone:
        Descriptive fields kept for CloudSim parity.
    """

    cost_per_mem: float = 0.05
    cost_per_storage: float = 0.001
    cost_per_bw: float = 0.0
    cost_per_cpu: float = 3.0
    arch: str = "x86"
    os: str = "Linux"
    vmm: str = "Xen"
    timezone: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("cost_per_mem", "cost_per_storage", "cost_per_bw", "cost_per_cpu"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")

    def cloudlet_cost(self, cloudlet: Cloudlet, vm: Vm) -> float:
        """Price one finished cloudlet run on ``vm`` in this datacenter.

        ``cpu_cost * (length / mips) + mem_cost * vm_ram
        + storage_cost * vm_size + bw_cost * (file_size + output_size)``
        """
        cpu_seconds = cloudlet.length / vm.mips
        return (
            self.cost_per_cpu * cpu_seconds
            + self.cost_per_mem * vm.ram
            + self.cost_per_storage * vm.size
            + self.cost_per_bw * (cloudlet.file_size + cloudlet.output_size)
        )


__all__ = ["DatacenterCharacteristics"]
