"""Fault model: failures, recoveries, stragglers, and their injection.

Cloud schedulers are motivated by self-management under change; this module
injects that change.  The fault *plan* is a list of declarative events:

* :class:`VmFailure` — a VM dies at ``at_time``; with a finite ``downtime``
  its capacity returns (a fresh VM, progress lost) after that long;
* :class:`HostFailure` — the physical host running an anchor VM dies,
  killing every co-located VM at once (correlated failure);
* :class:`VmSlowdown` — a transient straggler: the VM's effective MIPS is
  scaled by ``factor`` for ``duration`` seconds.

:func:`validate_fault_plan` rejects plans with undefined semantics
(duplicate failures without an intervening recovery, two events on the
same VM at an identical instant).  :class:`FaultInjector` schedules the
validated plan into the kernel; datacenter-side handling lives in
:class:`~repro.cloud.datacenter.Datacenter`.

Ordering contract at a fault instant ``t``
------------------------------------------

1. Fault deliveries to datacenters fire first
   (:data:`FAULT_DELIVERY_PRIORITY` ``= -1``), beating the datacenter
   wake-up (priority ``+1``) that would process completions at ``t`` —
   so work finishing exactly at the crash is credited by the failure
   handler itself, not raced by it.
2. The datacenter then emits, in serial order at priority 0: the
   ``FAULT_NOTICE`` to the owning broker, credited completions, and the
   bounced ``FAILED`` cloudlets.  A broker therefore always learns of a
   death *before* it sees the casualties, and never retries onto the VM
   that just died.

This module only models and injects faults.  Recovery lives in
:mod:`repro.cloud.resilience`: blind round-robin resubmission, or
scheduler-driven rescheduling (ACO/HBO/RBS re-invoked over the
survivors) with retry backoff and dead-lettering.  Randomized fault
plans live in :mod:`repro.cloud.chaos`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cloud.vm import Vm
from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL

#: Priority of injector→datacenter fault deliveries: a fault at instant
#: ``t`` is handled before the datacenter wake-up (priority +1) and before
#: any same-instant priority-0 traffic queued after it.  See the module
#: docstring for the full ordering contract.
FAULT_DELIVERY_PRIORITY = -1


@dataclass(frozen=True, slots=True)
class VmFailure:
    """One planned VM failure, optionally followed by a recovery.

    With ``downtime=None`` the VM is gone for good; with a finite downtime
    a fresh VM (same id, empty scheduler — all progress was lost) is
    re-placed ``downtime`` seconds after the crash.
    """

    vm_index: int
    at_time: float
    downtime: float | None = None

    def __post_init__(self) -> None:
        if self.vm_index < 0:
            raise ValueError(f"vm_index must be non-negative, got {self.vm_index}")
        if not math.isfinite(self.at_time) or self.at_time < 0:
            raise ValueError(
                f"at_time must be finite and non-negative, got {self.at_time}"
            )
        if self.downtime is not None and (
            not math.isfinite(self.downtime) or self.downtime <= 0
        ):
            raise ValueError(
                f"downtime must be positive and finite, got {self.downtime}"
            )


@dataclass(frozen=True, slots=True)
class HostFailure:
    """A correlated failure: the host running VM ``vm_index`` crashes.

    Every VM co-located on that host dies at ``at_time`` (which VMs those
    are depends on the allocation policy's runtime placement); the host is
    marked dead and excluded from later recovery placements.
    """

    vm_index: int
    at_time: float

    def __post_init__(self) -> None:
        if self.vm_index < 0:
            raise ValueError(f"vm_index must be non-negative, got {self.vm_index}")
        if not math.isfinite(self.at_time) or self.at_time < 0:
            raise ValueError(
                f"at_time must be finite and non-negative, got {self.at_time}"
            )


@dataclass(frozen=True, slots=True)
class VmSlowdown:
    """A transient straggler window.

    The VM's effective MIPS is multiplied by ``factor`` at ``at_time`` and
    restored ``duration`` seconds later; in-flight work is re-timed at both
    edges, no progress is lost.
    """

    vm_index: int
    at_time: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.vm_index < 0:
            raise ValueError(f"vm_index must be non-negative, got {self.vm_index}")
        if not math.isfinite(self.at_time) or self.at_time < 0:
            raise ValueError(
                f"at_time must be finite and non-negative, got {self.at_time}"
            )
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if not 0 < self.factor <= 1:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")


FaultEvent = VmFailure | HostFailure | VmSlowdown


def validate_fault_plan(
    plan: Sequence[FaultEvent], num_vms: int
) -> list[FaultEvent]:
    """Check a fault plan for well-defined semantics; return it as a list.

    Rejected: events referencing VM indices outside ``[0, num_vms)``; two
    events touching the same VM at an identical instant (delivery order
    would be undefined); a second failure of a VM that never recovers from
    (or has not yet recovered from) an earlier one.  Host-failure blast
    radii depend on runtime placement, so only their anchor VMs are checked
    — victims of a host crash are handled tolerantly at runtime instead.
    """
    instants: dict[int, set[float]] = defaultdict(set)
    failures: dict[int, list[VmFailure | HostFailure]] = defaultdict(list)

    def claim(vm_index: int, at: float, what: str) -> None:
        if at in instants[vm_index]:
            raise ValueError(
                f"fault plan schedules two events for vm {vm_index} at the "
                f"identical instant t={at} ({what}); ordering would be undefined"
            )
        instants[vm_index].add(at)

    for entry in plan:
        if not isinstance(entry, (VmFailure, HostFailure, VmSlowdown)):
            raise TypeError(f"unknown fault plan entry {entry!r}")
        if not 0 <= entry.vm_index < num_vms:
            raise ValueError(
                f"fault vm_index {entry.vm_index} out of range "
                f"(scenario has {num_vms} VMs)"
            )
        if isinstance(entry, VmFailure):
            claim(entry.vm_index, entry.at_time, "failure")
            if entry.downtime is not None:
                claim(entry.vm_index, entry.at_time + entry.downtime, "recovery")
            failures[entry.vm_index].append(entry)
        elif isinstance(entry, HostFailure):
            claim(entry.vm_index, entry.at_time, "host failure")
            failures[entry.vm_index].append(entry)
        else:
            claim(entry.vm_index, entry.at_time, "slowdown")
            claim(entry.vm_index, entry.at_time + entry.duration, "slowdown end")

    for vm_index, entries in failures.items():
        entries.sort(key=lambda e: e.at_time)
        for first, second in zip(entries, entries[1:]):
            recovered_at = (
                first.at_time + first.downtime
                if isinstance(first, VmFailure) and first.downtime is not None
                else None
            )
            if recovered_at is None:
                raise ValueError(
                    f"duplicate failure of vm {vm_index}: it never recovers "
                    f"from the failure at t={first.at_time}"
                )
            if recovered_at >= second.at_time:
                raise ValueError(
                    f"vm {vm_index} fails again at t={second.at_time} before "
                    f"recovering at t={recovered_at}"
                )
    return list(plan)


class FaultInjector(Entity):
    """Schedules a validated fault plan into the kernel.

    Parameters
    ----------
    name:
        Entity name.
    plan:
        Fault events; see :func:`validate_fault_plan`.
    vm_entity:
        ``vm index -> owning datacenter entity id``.
    owner_id:
        Broker entity id recovered VMs are re-registered to.  Required when
        the plan contains recoveries.
    vm_factory:
        ``vm index -> fresh Vm`` used to materialise recovered capacity.
        Required when the plan contains recoveries.
    """

    def __init__(
        self,
        name: str,
        plan: Sequence[FaultEvent],
        vm_entity: dict[int, int],
        *,
        owner_id: int | None = None,
        vm_factory: Callable[[int], Vm] | None = None,
    ) -> None:
        super().__init__(name)
        for entry in plan:
            if entry.vm_index not in vm_entity:
                raise ValueError(
                    f"failure references unknown vm index {entry.vm_index}"
                )
        has_recoveries = any(
            isinstance(e, VmFailure) and e.downtime is not None for e in plan
        )
        if has_recoveries and (owner_id is None or vm_factory is None):
            raise ValueError(
                "fault plans with recoveries require owner_id and vm_factory"
            )
        self.plan = list(plan)
        self.vm_entity = dict(vm_entity)
        self.owner_id = owner_id
        self.vm_factory = vm_factory

    def start(self) -> None:
        if _TEL.enabled and self.plan:
            _TEL.count("faults.injected", len(self.plan))
        for entry in self.plan:
            dc_id = self.vm_entity[entry.vm_index]
            if isinstance(entry, VmFailure):
                self.send(
                    dc_id, entry.at_time, EventTag.VM_FAILURE,
                    data=entry.vm_index, priority=FAULT_DELIVERY_PRIORITY,
                )
                if entry.downtime is not None:
                    assert self.vm_factory is not None  # checked in __init__
                    fresh = self.vm_factory(entry.vm_index)
                    self.send(
                        dc_id, entry.at_time + entry.downtime, EventTag.VM_RECOVER,
                        data=(fresh, self.owner_id),
                        priority=FAULT_DELIVERY_PRIORITY,
                    )
            elif isinstance(entry, HostFailure):
                self.send(
                    dc_id, entry.at_time, EventTag.HOST_FAILURE,
                    data=entry.vm_index, priority=FAULT_DELIVERY_PRIORITY,
                )
            else:
                self.send(
                    dc_id, entry.at_time, EventTag.VM_SLOWDOWN,
                    data=(entry.vm_index, entry.factor),
                    priority=FAULT_DELIVERY_PRIORITY,
                )
                self.send(
                    dc_id, entry.at_time + entry.duration, EventTag.VM_SLOWDOWN_END,
                    data=entry.vm_index, priority=FAULT_DELIVERY_PRIORITY,
                )

    def process_event(self, event: Event) -> None:
        raise ValueError(f"{self.name}: unexpected event tag {event.tag!r}")


__all__ = [
    "FAULT_DELIVERY_PRIORITY",
    "VmFailure",
    "HostFailure",
    "VmSlowdown",
    "FaultEvent",
    "validate_fault_plan",
    "FaultInjector",
]
