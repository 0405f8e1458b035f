"""Physical hosts.

A host owns PEs, RAM, bandwidth and storage, and accommodates VMs through
its provisioners.  The study never oversubscribes hosts (each paper VM gets
dedicated capacity), but the model enforces capacity limits so allocation
policies are meaningfully exercised.
"""

from __future__ import annotations

from typing import Iterable

from repro.cloud.provisioners import BwProvisioner, PeProvisioner, RamProvisioner
from repro.cloud.vm import Vm
from repro.core.checks import check_number


class Host:
    """A physical machine inside a datacenter.

    Parameters
    ----------
    host_id:
        Unique id within its datacenter.
    mips_per_pe:
        Capacity of each processing element.
    pes:
        Number of processing elements.
    ram, bw, storage:
        Memory (MB), bandwidth (Mbit/s) and disk (MB) capacities.
    """

    def __init__(
        self,
        host_id: int,
        mips_per_pe: float,
        pes: int,
        ram: float,
        bw: float,
        storage: float,
    ) -> None:
        check_number("mips_per_pe", mips_per_pe, gt=0)
        check_number("pes", pes, ge=1, integer=True)
        self.host_id = host_id
        self.mips_per_pe = float(mips_per_pe)
        self.pes = int(pes)
        self.storage_capacity = float(storage)
        self.ram_provisioner = RamProvisioner(ram)
        self.bw_provisioner = BwProvisioner(bw)
        self.pe_provisioner = PeProvisioner(pes)
        self._storage_used = 0.0
        self._vms: dict[int, Vm] = {}

    # -- capacity views -------------------------------------------------------

    @property
    def total_mips(self) -> float:
        return self.mips_per_pe * self.pes

    @property
    def available_storage(self) -> float:
        return self.storage_capacity - self._storage_used

    @property
    def free_pes(self) -> int:
        return int(self.pe_provisioner.available)

    @property
    def vms(self) -> tuple[Vm, ...]:
        return tuple(self._vms.values())

    @property
    def vm_count(self) -> int:
        return len(self._vms)

    # -- VM placement ----------------------------------------------------------

    def is_suitable_for(self, vm: Vm) -> bool:
        """Whether the VM's full requirements fit on this host right now."""
        return (
            vm.mips <= self.mips_per_pe + 1e-9
            and self.pe_provisioner.can_allocate(vm.pes)
            and self.ram_provisioner.can_allocate(vm.ram)
            and self.bw_provisioner.can_allocate(vm.bw)
            and vm.size <= self.available_storage + 1e-9
        )

    def create_vm(self, vm: Vm) -> bool:
        """Place ``vm`` on this host; returns ``False`` when it does not fit."""
        if vm.vm_id in self._vms:
            raise ValueError(f"vm {vm.vm_id} is already on host {self.host_id}")
        if not self.is_suitable_for(vm):
            return False
        # The three allocations cannot fail after is_suitable_for, but keep
        # the rollback anyway so the invariant survives future edits.
        if not self.pe_provisioner.allocate(vm.vm_id, vm.pes):
            return False
        if not self.ram_provisioner.allocate(vm.vm_id, vm.ram):
            self.pe_provisioner.deallocate(vm.vm_id)
            return False
        if not self.bw_provisioner.allocate(vm.vm_id, vm.bw):
            self.pe_provisioner.deallocate(vm.vm_id)
            self.ram_provisioner.deallocate(vm.vm_id)
            return False
        self._storage_used += vm.size
        self._vms[vm.vm_id] = vm
        vm.host = self
        return True

    def destroy_vm(self, vm: Vm) -> None:
        """Remove ``vm`` and release its resources."""
        if vm.vm_id not in self._vms:
            raise ValueError(f"vm {vm.vm_id} is not on host {self.host_id}")
        self.pe_provisioner.deallocate(vm.vm_id)
        self.ram_provisioner.deallocate(vm.vm_id)
        self.bw_provisioner.deallocate(vm.vm_id)
        self._storage_used -= vm.size
        del self._vms[vm.vm_id]
        vm.host = None

    def iter_vms(self) -> Iterable[Vm]:
        return iter(self._vms.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Host(id={self.host_id}, pes={self.pes}x{self.mips_per_pe}mips, "
            f"vms={len(self._vms)})"
        )


__all__ = ["Host"]
