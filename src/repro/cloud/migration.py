"""Runtime VM consolidation via live migration.

:class:`ConsolidationController` periodically inspects a datacenter and
issues ``VM_MIGRATE`` requests that drain lightly loaded hosts into fuller
ones — the runtime counterpart of the static
:class:`~repro.cloud.vm_allocation.VmAllocationConsolidating` policy, and
the mechanism behind energy-aware cloud operation (fewer active hosts).

Migration semantics live in the datacenter (post-copy live migration: the
copy phase takes ``vm.ram / migration_bandwidth`` seconds and execution is
never paused, so cloudlet timings are migration-invariant — asserted by
the tests).
"""

from __future__ import annotations

from repro.cloud.datacenter import Datacenter
from repro.core.checks import check_number
from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.tags import EventTag


class ConsolidationController(Entity):
    """Periodically packs a datacenter's VMs onto fewer hosts.

    Parameters
    ----------
    name:
        Entity name.
    datacenter:
        The datacenter to manage (must be registered with the same
        simulation).
    interval:
        Seconds between consolidation passes.
    max_rounds:
        Stop after this many passes (keeps idle simulations finite).
    moves_per_round:
        Maximum migrations requested per pass.
    """

    def __init__(
        self,
        name: str,
        datacenter: Datacenter,
        interval: float = 5.0,
        max_rounds: int = 20,
        moves_per_round: int = 4,
    ) -> None:
        super().__init__(name)
        self.datacenter = datacenter
        self.interval = check_number("interval", interval, gt=0)
        self.max_rounds = check_number("max_rounds", max_rounds, ge=1, integer=True)
        self.moves_per_round = check_number(
            "moves_per_round", moves_per_round, ge=1, integer=True
        )
        self.rounds_run = 0
        self.moves_requested = 0

    def start(self) -> None:
        self.schedule_self(self.interval, EventTag.TIMER)

    def process_event(self, event: Event) -> None:
        if event.tag is not EventTag.TIMER:
            raise ValueError(f"{self.name}: unexpected event tag {event.tag!r}")
        self.rounds_run += 1
        moves = self.plan_moves()
        for vm_id, host_id in moves:
            self.moves_requested += 1
            self.send_now(self.datacenter, EventTag.VM_MIGRATE, data=(vm_id, host_id))
        if self.rounds_run < self.max_rounds:
            self.schedule_self(self.interval, EventTag.TIMER)

    def plan_moves(self) -> list[tuple[int, int]]:
        """Greedy drain: move VMs off the emptiest active hosts into the
        fullest hosts that can take them.

        Moves within one round are planned against *projected* occupancy —
        each planned move updates the counts the next decision sees —
        otherwise two equally loaded hosts would simply swap VMs forever.
        A move is only planned into a host at least as full as the source,
        so every move strictly progresses consolidation.
        """
        hosts = self.datacenter.hosts
        projected = {h.host_id: h.vm_count for h in hosts}
        planned_pes_in: dict[int, int] = {h.host_id: 0 for h in hosts}
        planned_vms: set[int] = set()
        moves: list[tuple[int, int]] = []

        for _ in range(self.moves_per_round):
            active = [h for h in hosts if projected[h.host_id] > 0]
            if len(active) < 2:
                break
            source = min(active, key=lambda h: projected[h.host_id])
            candidates = [
                vm for vm in source.iter_vms() if vm.vm_id not in planned_vms
            ]
            if not candidates:
                break
            vm = candidates[0]
            targets = sorted(
                (
                    h
                    for h in hosts
                    if h is not source
                    and projected[h.host_id] >= projected[source.host_id]
                ),
                key=lambda h: -projected[h.host_id],
            )
            target = next(
                (
                    t
                    for t in targets
                    if t.is_suitable_for(vm)
                    and t.free_pes - planned_pes_in[t.host_id] >= vm.pes
                ),
                None,
            )
            if target is None:
                break
            moves.append((vm.vm_id, target.host_id))
            planned_vms.add(vm.vm_id)
            projected[source.host_id] -= 1
            projected[target.host_id] += 1
            planned_pes_in[target.host_id] += vm.pes
        return moves


__all__ = ["ConsolidationController"]
