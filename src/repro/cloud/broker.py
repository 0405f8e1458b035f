"""The broker core and the datacenter broker.

:class:`FleetBroker` drives the user side of the protocol that every DES
engine shares: request VM creation across the datacenters, wait until
every VM is acknowledged, submit cloudlets and collect their returns.  It
owns that handshake, the one event dispatch and the one submit path;
each engine's broker adds only its own rules through the hooks.

:class:`DatacenterBroker` submits a *precomputed* cloudlet→VM assignment.
The assignment is produced ahead of the simulation by one of the
``repro.schedulers`` policies, exactly as the paper does: the scheduler is
a batch decision procedure, and the simulation measures the consequences
of its decision.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping, Sequence

import numpy as np

from repro.cloud.cloudlet import Cloudlet, CloudletStatus
from repro.cloud.datacenter import FaultNotice
from repro.cloud.vm import Vm
from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.tags import EventTag


class FleetBroker(Entity):
    """The protocol every DES broker speaks; engines override the hooks.

    ``vm_placement`` maps ``vm index -> datacenter entity id`` and decides
    where each VM is created; ``cloudlets`` are indexed by
    ``cloudlet_id``; ``assignment`` is the initial ``cloudlet index -> vm
    index`` (default ``-1``: none yet).

    :meth:`start` requests every VM at t=0.  After the last ack the run
    fails if a datacenter rejected any VM (listing them all); otherwise
    :meth:`_on_fleet_ready` begins the submissions.  A returned cloudlet
    joins ``finished`` and goes to :meth:`_on_finish`, or to
    :meth:`_on_bounce` if it came back ``FAILED``.  ``TIMER`` goes to
    :meth:`_on_timer` and ``FAULT_NOTICE`` to :meth:`_on_fault_notice`,
    which keeps ``alive``; ``NONE`` and ``END_OF_SIMULATION`` are
    ignored and any other tag raises.  Every message leaves without
    delay: CloudSim's default, delay-free topology, the paper's setting.
    """

    def __init__(
        self,
        name: str,
        vms: Sequence[Vm],
        cloudlets: Sequence[Cloudlet],
        vm_placement: Mapping[int, int],
        assignment: Sequence[int] | None = None,
    ) -> None:
        super().__init__(name)
        self.vms = list(vms)
        self.cloudlets = list(cloudlets)
        self.vm_placement = dict(vm_placement)
        #: cloudlet index -> the VM index it was last submitted to.
        self.assignment = (
            np.full(len(self.cloudlets), -1, dtype=np.int64)
            if assignment is None
            else np.array(assignment, dtype=np.int64)
        )
        #: VMs not reported dead by a datacenter's fault notice.
        self.alive = np.ones(len(self.vms), dtype=bool)
        self.finished: list[Cloudlet] = []
        self._acks_outstanding = 0
        self._rejected_vms: list[int] = []

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Fire all VM creation requests at t=0."""
        self._acks_outstanding = len(self.vms)
        for idx, vm in enumerate(self.vms):
            self.send_now(self.vm_placement[idx], EventTag.VM_CREATE, data=vm)
        if not self.vms:
            self._on_fleet_ready()

    def process_event(self, event: Event) -> None:
        tag = event.tag
        if tag is EventTag.CLOUDLET_RETURN:
            cloudlet: Cloudlet = event.data
            if cloudlet.status is CloudletStatus.FAILED:
                self._on_bounce(cloudlet)
            else:
                self.finished.append(cloudlet)
                self._on_finish(cloudlet)
        elif tag is EventTag.TIMER:
            self._on_timer(event.data)
        elif tag is EventTag.FAULT_NOTICE:
            self._on_fault_notice(event.data)
        elif tag is EventTag.VM_CREATE_ACK:
            self._process_ack(*event.data)
        elif tag not in (EventTag.NONE, EventTag.END_OF_SIMULATION):
            raise ValueError(f"{self.name}: unexpected event tag {tag!r}")

    def _process_ack(self, vm: Vm, success: bool) -> None:
        if not success:
            self._rejected_vms.append(vm.vm_id)
        self._acks_outstanding -= 1
        if self._acks_outstanding == 0:
            if self._rejected_vms:
                rejected = self._rejected_vms
                raise RuntimeError(
                    f"{self.name}: datacenters rejected VMs {rejected[:10]} "
                    f"({len(rejected)} total); scenario hosts are undersized"
                )
            self._on_fleet_ready()

    def submit(self, c_idx: int, vm_idx: int) -> None:
        """Send cloudlet ``c_idx`` to VM ``vm_idx``; a re-send starts afresh."""
        cloudlet = self.cloudlets[c_idx]
        if cloudlet.status is not CloudletStatus.CREATED:
            cloudlet.reset_for_retry()
        self.assignment[c_idx] = vm_idx
        cloudlet.vm_id = self.vms[vm_idx].vm_id
        self.send_now(self.vm_placement[vm_idx], EventTag.CLOUDLET_SUBMIT, data=cloudlet)

    # -- hooks ---------------------------------------------------------------------

    @abc.abstractmethod
    def _on_fleet_ready(self) -> None:
        """Every VM is acknowledged: begin submitting."""

    def _on_finish(self, cloudlet: Cloudlet) -> None:
        """``cloudlet`` came back finished (it is already in ``finished``)."""

    def _on_bounce(self, cloudlet: Cloudlet) -> None:
        """``cloudlet`` came back ``FAILED``; this broker does not retry."""
        raise RuntimeError(
            f"{self.name}: cloudlet {cloudlet.cloudlet_id} failed "
            f"(vm {cloudlet.vm_id} missing in target datacenter)"
        )

    def _on_timer(self, data: Any) -> None:
        """A ``TIMER`` this broker scheduled for itself has matured."""
        raise ValueError(f"{self.name}: unexpected event tag {EventTag.TIMER!r}")

    def _on_fault_notice(self, notice: FaultNotice) -> None:
        """The fleet changed: the notice's VMs died or came back."""
        self.alive[list(notice.vm_ids)] = notice.kind == "vm-recovered"

    # -- results -----------------------------------------------------------------

    @property
    def all_finished(self) -> bool:
        return len(self.finished) == len(self.cloudlets)


class DatacenterBroker(FleetBroker):
    """Submits every cloudlet per a precomputed decision; collects the returns.

    ``assignment`` maps ``cloudlet index -> vm index`` (into the
    ``cloudlets`` / ``vms`` sequences as given).
    """

    def __init__(
        self,
        name: str,
        vms: Sequence[Vm],
        cloudlets: Sequence[Cloudlet],
        assignment: Sequence[int],
        vm_placement: Mapping[int, int],
    ) -> None:
        if len(assignment) != len(cloudlets):
            raise ValueError(
                f"assignment length {len(assignment)} != number of cloudlets {len(cloudlets)}"
            )
        n_vms = len(vms)
        for i, v in enumerate(assignment):
            if not 0 <= v < n_vms:
                raise ValueError(f"assignment[{i}] = {v} is not a valid vm index")
        missing = [i for i in range(n_vms) if i not in vm_placement]
        if missing:
            raise ValueError(f"vm_placement missing vm indices {missing[:5]}...")
        super().__init__(name, vms, cloudlets, vm_placement, assignment)

    def _on_fleet_ready(self) -> None:
        for c_idx, vm_idx in enumerate(self.assignment.tolist()):
            self.submit(c_idx, vm_idx)


__all__ = ["DatacenterBroker", "FleetBroker"]
