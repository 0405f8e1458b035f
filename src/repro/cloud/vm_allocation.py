"""VM-to-host allocation policies.

Equivalent of CloudSim's ``VmAllocationPolicy`` hierarchy: when a broker asks
a datacenter to create a VM, the policy picks the host.  The paper relies on
the "simple" policy (least-used host first); round-robin and consolidating
placement are the alternatives the energy studies compare.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.cloud.host import Host
from repro.cloud.vm import Vm


class VmAllocationPolicy(abc.ABC):
    """Chooses a host for each VM creation request."""

    @abc.abstractmethod
    def select_host(self, hosts: Sequence[Host], vm: Vm) -> Host | None:
        """Return the host to place ``vm`` on, or ``None`` if nothing fits."""

    def allocate(self, hosts: Sequence[Host], vm: Vm) -> bool:
        """Pick a host and create the VM there; returns success."""
        host = self.select_host(hosts, vm)
        if host is None:
            return False
        return host.create_vm(vm)


class VmAllocationLeastUsed(VmAllocationPolicy):
    """CloudSim's ``VmAllocationPolicySimple``: host with most free PEs wins."""

    def select_host(self, hosts: Sequence[Host], vm: Vm) -> Host | None:
        best: Host | None = None
        best_free = -1
        for host in hosts:
            if host.free_pes > best_free and host.is_suitable_for(vm):
                best = host
                best_free = host.free_pes
        return best


class VmAllocationRoundRobin(VmAllocationPolicy):
    """Rotate over hosts, skipping those that do not fit."""

    def __init__(self) -> None:
        self._next = 0

    def select_host(self, hosts: Sequence[Host], vm: Vm) -> Host | None:
        n = len(hosts)
        for offset in range(n):
            host = hosts[(self._next + offset) % n]
            if host.is_suitable_for(vm):
                self._next = (self._next + offset + 1) % n
                return host
        return None


class VmAllocationConsolidating(VmAllocationPolicy):
    """Pack VMs onto as few hosts as possible (most-used suitable host wins).

    The energy-aware counterpart of :class:`VmAllocationLeastUsed`: fewer
    active hosts means fewer idle-power domains under the
    :mod:`repro.cloud.power` models.  Ties (equal free PEs) break toward
    the lower host id so placement is deterministic.
    """

    def select_host(self, hosts: Sequence[Host], vm: Vm) -> Host | None:
        best: Host | None = None
        best_free: int | None = None
        for host in hosts:
            if not host.is_suitable_for(vm):
                continue
            if best_free is None or host.free_pes < best_free:
                best = host
                best_free = host.free_pes
        return best


__all__ = [
    "VmAllocationPolicy",
    "VmAllocationLeastUsed",
    "VmAllocationRoundRobin",
    "VmAllocationConsolidating",
]
