"""The datacenter broker.

Drives the user side of the protocol: request VM creation across the
datacenters, then — once every VM is acknowledged — submit all cloudlets
according to a *precomputed* cloudlet→VM assignment, and collect completions.

The assignment is produced ahead of the simulation by one of the
``repro.schedulers`` policies, exactly as the paper does: the scheduler is a
batch decision procedure, and the simulation measures the consequences of
its decision.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cloud.cloudlet import Cloudlet, CloudletStatus
from repro.cloud.vm import Vm
from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.tags import EventTag


class DatacenterBroker(Entity):
    """Submits VMs and cloudlets; collects finished cloudlets.

    Parameters
    ----------
    name:
        Entity name.
    vms:
        All VMs to create.
    cloudlets:
        All cloudlets to run.
    assignment:
        ``cloudlet index -> vm index`` mapping (into the ``cloudlets`` /
        ``vms`` sequences as given).
    vm_placement:
        ``vm index -> datacenter entity id``; decides where each VM is
        created.

    Every message leaves without delay: CloudSim's default, delay-free
    topology, the paper's setting.
    """

    def __init__(
        self,
        name: str,
        vms: Sequence[Vm],
        cloudlets: Sequence[Cloudlet],
        assignment: Sequence[int],
        vm_placement: Mapping[int, int],
    ) -> None:
        super().__init__(name)
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
        self.vms = list(vms)
        self.cloudlets = list(cloudlets)
        self.assignment = list(assignment)
        self.vm_placement = dict(vm_placement)

        self._acks_outstanding = 0
        self._failed_vms: list[Vm] = []
        self.finished: list[Cloudlet] = []
        self._submitted = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Fire all VM creation requests at t=0."""
        self._acks_outstanding = len(self.vms)
        for idx, vm in enumerate(self.vms):
            self.send_now(self.vm_placement[idx], EventTag.VM_CREATE, data=vm)
        if not self.vms:
            self._submit_cloudlets()

    def process_event(self, event: Event) -> None:
        if event.tag is EventTag.VM_CREATE_ACK:
            self._process_ack(event)
        elif event.tag is EventTag.CLOUDLET_RETURN:
            self._process_return(event)
        elif event.tag in (EventTag.NONE, EventTag.END_OF_SIMULATION):
            pass
        else:
            raise ValueError(f"{self.name}: unexpected event tag {event.tag!r}")

    def _process_ack(self, event: Event) -> None:
        vm, success = event.data
        if not success:
            self._failed_vms.append(vm)
        self._acks_outstanding -= 1
        if self._acks_outstanding == 0:
            if self._failed_vms:
                failed_ids = [vm.vm_id for vm in self._failed_vms]
                raise RuntimeError(
                    f"{self.name}: datacenters rejected VMs {failed_ids[:10]} "
                    f"({len(failed_ids)} total); scenario hosts are undersized"
                )
            self._submit_cloudlets()

    def _submit_cloudlets(self) -> None:
        """Send every cloudlet to the datacenter hosting its assigned VM."""
        if self._submitted:
            return
        self._submitted = True
        for c_idx, cloudlet in enumerate(self.cloudlets):
            vm = self.vms[self.assignment[c_idx]]
            dc_id = self.vm_placement[self.assignment[c_idx]]
            cloudlet.vm_id = vm.vm_id
            self.send_now(dc_id, EventTag.CLOUDLET_SUBMIT, data=cloudlet)

    def _process_return(self, event: Event) -> None:
        cloudlet: Cloudlet = event.data
        if cloudlet.status is CloudletStatus.FAILED:
            raise RuntimeError(
                f"{self.name}: cloudlet {cloudlet.cloudlet_id} failed "
                f"(vm {cloudlet.vm_id} missing in target datacenter)"
            )
        self.finished.append(cloudlet)

    # -- results -----------------------------------------------------------------

    @property
    def all_finished(self) -> bool:
        return len(self.finished) == len(self.cloudlets)


__all__ = ["DatacenterBroker"]
