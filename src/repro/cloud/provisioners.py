"""Host resource provisioners.

Mirror CloudSim's ``RamProvisionerSimple`` / ``BwProvisionerSimple`` /
``PeProvisionerSimple``: bookkeeping objects that grant or deny slices of a
host resource to VMs.  They enforce capacity but perform no overbooking.
"""

from __future__ import annotations

from repro.core.checks import check_number


class ResourceProvisioner:
    """Tracks allocation of a scalar resource (RAM MB, BW Mbit/s, PEs...).

    Parameters
    ----------
    capacity:
        Total amount available on the host.
    name:
        Human-readable resource name used in error messages.
    """

    def __init__(self, capacity: float, name: str = "resource") -> None:
        self.capacity = float(check_number(f"{name} capacity", capacity, ge=0))
        self.name = name
        self._allocated: dict[int, float] = {}

    @property
    def total_allocated(self) -> float:
        return sum(self._allocated.values())

    @property
    def available(self) -> float:
        return self.capacity - self.total_allocated

    def allocated_for(self, vm_id: int) -> float:
        """Amount currently granted to ``vm_id`` (0 when none)."""
        return self._allocated.get(vm_id, 0.0)

    def can_allocate(self, amount: float) -> bool:
        """Whether ``amount`` more of the resource fits."""
        if amount < 0:
            raise ValueError(f"cannot allocate negative {self.name}: {amount}")
        return amount <= self.available + 1e-9

    def allocate(self, vm_id: int, amount: float) -> bool:
        """Grant ``amount`` to ``vm_id``.  Returns ``False`` if it does not fit.

        Re-allocating for an id replaces (not adds to) its previous grant.
        """
        previous = self._allocated.get(vm_id, 0.0)
        if amount - previous > self.available + 1e-9:
            return False
        self._allocated[vm_id] = float(amount)
        return True

    def deallocate(self, vm_id: int) -> float:
        """Release the grant for ``vm_id``; returns the amount released."""
        return self._allocated.pop(vm_id, 0.0)

    def reset(self) -> None:
        """Release all grants."""
        self._allocated.clear()


class RamProvisioner(ResourceProvisioner):
    """Host memory provisioner."""

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity, name="ram")


class BwProvisioner(ResourceProvisioner):
    """Host bandwidth provisioner."""

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity, name="bw")


class PeProvisioner(ResourceProvisioner):
    """Host PE-count provisioner (integral PEs)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(float(capacity), name="pes")

    def allocate(self, vm_id: int, amount: float) -> bool:
        if amount != int(amount):
            raise ValueError(f"PE allocation must be integral, got {amount}")
        return super().allocate(vm_id, amount)


__all__ = ["ResourceProvisioner", "RamProvisioner", "BwProvisioner", "PeProvisioner"]
