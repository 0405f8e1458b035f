"""Online simulation: cloudlets arrive over time, scheduled per wave.

Extends the batch study to the dynamic setting the paper's introduction
motivates ("the demands for resources change dynamically, and cloud
providers are expected to ... react to these changes"):

* an :class:`OnlineBroker` entity receives arrival waves as timer events,
  asks an :class:`~repro.schedulers.online.OnlineScheduler` to place each
  cloudlet using the live backlog estimate, and submits it immediately;
  it re-places cloudlets that faults or rebalance cancels bounce back,
  and exposes the actuators a :class:`~repro.cloud.control.ControlLoop`
  drives;
* :class:`OnlineCloudSimulation` wires scenario + arrival process + policy
  (+ optional timeline and control loop) together and reduces the run to
  the familiar :class:`~repro.cloud.simulation.SimulationResult` (with
  arrival-relative waiting/flow times).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.broker import FleetBroker
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.control import ControlConfig, ControlLoop
from repro.cloud.datacenter import FaultNotice
from repro.cloud.simulation import (
    ExecutionModel,
    SimulationResult,
    build_simulation,
    cloudlet_costs,
    cloudlet_times,
    run_info,
    simulation_result,
)
from repro.cloud.vm import Vm
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.schedulers.base import SchedulingContext
from repro.schedulers.online import BatchAdapter, OnlineScheduler
from repro.workloads.arrivals import ArrivalProcess, BatchArrivals
from repro.workloads.spec import ScenarioSpec

if TYPE_CHECKING:
    from repro.workloads.timeline import Timeline


#: a run raises when one cloudlet's failure bounces reach this count; a
#: cloudlet moved this many times by rebalance cancels is pinned where it is.
MAX_ATTEMPTS = 32


class OnlineBroker(FleetBroker):
    """Submits cloudlets as they arrive; places each with an online policy.

    The broker maintains ``backlog``: per-VM estimated outstanding execution
    seconds (submission adds the cloudlet's ``length/(mips*pes)`` estimate
    on the chosen VM, completion or a bounce removes it), which is the state
    the online policies key on.  It also carries the mechanisms a
    :class:`~repro.cloud.control.ControlLoop` actuates:

    * the ``alive`` mask kept from datacenter ``FAULT_NOTICE`` events and
      an ``active`` mask owned by the autoscaler (the ``standby_vms``
      highest-indexed VMs start parked);
    * self-healing: a ``FAILED`` return (crash bounce or rebalance cancel)
      is re-placed through the policy at once; a cloudlet that fails
      :data:`MAX_ATTEMPTS` times raises;
    * actuators: :meth:`cancel_for_rebalance`, :meth:`activate_standby`,
      :meth:`drain_active`.

    While every VM is eligible the policy sees the live backlog.  Once a
    fault notice or the autoscaler leaves some VM dead or parked, it sees
    a copy with the ineligible VMs masked to ``+inf``, and an in-range pick
    of an ineligible VM is remapped to the least-loaded eligible one.  A
    pick outside the fleet always raises.
    """

    def __init__(
        self,
        name: str,
        vms: list[Vm],
        cloudlets: list[Cloudlet],
        arrival_times: np.ndarray,
        policy: OnlineScheduler,
        context: SchedulingContext,
        vm_placement: dict[int, int],
        standby_vms: int = 0,
    ) -> None:
        super().__init__(name, vms, cloudlets, vm_placement)
        if len(arrival_times) != len(cloudlets):
            raise ValueError("arrival_times must be index-aligned with cloudlets")
        num_vms = len(vms)
        check_number("standby_vms", standby_vms, ge=0, integer=True)
        if standby_vms >= num_vms:
            raise ValueError(
                f"standby_vms must leave at least one active VM, got {standby_vms} "
                f"of {num_vms}"
            )
        self.arrival_times = np.asarray(arrival_times, dtype=float)
        if not (np.isfinite(self.arrival_times).all() and (self.arrival_times >= 0).all()):
            raise ValueError("arrival times must be finite and non-negative")
        self.policy = policy
        self.context = context
        self.backlog = np.zeros(num_vms)
        #: accumulated wall-clock seconds inside the policy (scheduling time).
        self.decision_seconds = 0.0
        self.active = np.ones(num_vms, dtype=bool)
        self.active[num_vms - standby_vms :] = False
        self._all_eligible = not standby_vms
        self.attempts = np.zeros(len(cloudlets), dtype=np.int64)
        #: how often each cloudlet was moved by a rebalance cancel.
        self.moves = np.zeros(len(cloudlets), dtype=np.int64)
        self.retries = 0
        self.rebalance_cancels = 0
        self.scale_ups = 0
        self.scale_downs = 0
        #: per-VM set of cloudlet indices submitted and not yet returned.
        self._inflight: list[set[int]] = [set() for _ in range(num_vms)]
        #: cloudlets we cancelled ourselves; their bounce is a planned move,
        #: not a failure, so it never counts toward ``MAX_ATTEMPTS``.
        self._planned_bounces: set[int] = set()
        #: arrival instant -> cloudlet indices (a "wave").
        self._waves: dict[float, list[int]] = defaultdict(list)
        for idx, t in enumerate(self.arrival_times):
            self._waves[float(t)].append(idx)

    # -- lifecycle ---------------------------------------------------------------

    def _on_fleet_ready(self) -> None:
        arr = self.context.arrays
        # Python floats: the same IEEE quotients as the numpy columns, without
        # numpy scalar overhead on every placement and return.
        self._lengths = arr.cloudlet_length.tolist()
        self._speeds = (arr.vm_mips * arr.vm_pes).tolist()
        self.policy.start(self.context)
        for instant in sorted(self._waves):
            self.schedule_self(
                max(0.0, instant - self.now), EventTag.TIMER, data=instant
            )

    def _on_timer(self, instant: float) -> None:
        """Place the arrival wave due at ``instant``."""
        indices = self._waves[instant]
        t0 = time.perf_counter()
        if isinstance(self.policy, BatchAdapter):
            self.policy.begin_wave(np.asarray(indices, dtype=np.int64), self.context)
        for idx in indices:
            self._place_cloudlet(idx)
        self.decision_seconds += time.perf_counter() - t0

    def _on_fault_notice(self, notice: FaultNotice) -> None:
        super()._on_fault_notice(notice)
        self._refresh_eligible()

    # -- placement ---------------------------------------------------------------

    @property
    def eligible(self) -> np.ndarray:
        """VMs that may receive work: alive and not parked."""
        return self.alive & self.active

    def _refresh_eligible(self) -> None:
        self._all_eligible = bool(self.eligible.all())

    def _estimate(self, idx: int, vm_idx: int) -> float:
        """Estimated execution seconds of cloudlet ``idx`` on VM ``vm_idx``."""
        return self._lengths[idx] / self._speeds[vm_idx]

    def _choose_vm(self, idx: int) -> int:
        """The policy's pick for cloudlet ``idx``, remapped off ineligible VMs."""
        backlog, eligible = self.backlog, None
        if not self._all_eligible:
            eligible = self.eligible
            if not eligible.any():
                raise RuntimeError(
                    f"{self.name}: no eligible VM left to place cloudlet {idx}"
                )
            backlog = np.where(eligible, backlog, np.inf)
        vm_idx = self.policy.assign(idx, self.now, backlog, self.context)
        if not 0 <= vm_idx < len(self.vms):
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid VM index {vm_idx}"
            )
        if eligible is not None and not eligible[vm_idx]:
            vm_idx = int(np.argmin(backlog))
        return vm_idx

    def _place_cloudlet(self, idx: int) -> None:
        """Place one cloudlet: choose a VM, book the backlog, submit."""
        vm_idx = self._choose_vm(idx)
        self.backlog[vm_idx] += self._estimate(idx, vm_idx)
        self._inflight[vm_idx].add(idx)
        self.submit(idx, vm_idx)

    def _unbook(self, cloudlet: Cloudlet) -> int:
        """Take a returned cloudlet off its VM's books; return its index."""
        idx = cloudlet.cloudlet_id
        vm_idx = int(self.assignment[idx])
        self._inflight[vm_idx].discard(idx)
        self.backlog[vm_idx] -= self._estimate(idx, vm_idx)
        return idx

    def _on_finish(self, cloudlet: Cloudlet) -> None:
        # A cancel can race the finish and lose; clear the stale marker.
        self._planned_bounces.discard(self._unbook(cloudlet))

    def _on_bounce(self, cloudlet: Cloudlet) -> None:
        idx = self._unbook(cloudlet)
        if idx in self._planned_bounces:
            self._planned_bounces.discard(idx)
            self.moves[idx] += 1
        else:
            self.attempts[idx] += 1
            if self.attempts[idx] >= MAX_ATTEMPTS:
                raise RuntimeError(
                    f"{self.name}: cloudlet {idx} exhausted "
                    f"{MAX_ATTEMPTS} placement attempts"
                )
            self.retries += 1
        self._place_cloudlet(idx)

    # -- actuators (a control loop's Execute phase) ------------------------------

    def cancel_for_rebalance(self, vm_idx: int, max_cancel: int) -> int:
        """Cancel up to ``max_cancel`` in-flight cloudlets on ``vm_idx``.

        The datacenter bounces each still-unfinished one back ``FAILED``
        and the retry path re-places it over the eligible fleet (a planned
        move, not counted as a failure retry).  Least-moved, most recently
        assigned cloudlets go first — on a space-shared VM the newest are
        the deepest in the queue, so cancels mostly move *queued* work and
        forfeit little progress, and preferring the least-moved keeps one
        unlucky cloudlet from ping-ponging between hot VMs.

        Two bounds make rebalancing safe on the tail: the VM always keeps
        at least one cloudlet (cancelling the sole running one forfeits
        its progress without relieving anything), and a cloudlet already
        moved :data:`MAX_ATTEMPTS` times is pinned where it is.  Together
        they cap total cancels, so a mis-tuned loop cannot livelock the run.
        """
        pending = {
            i
            for i in self._inflight[vm_idx] - self._planned_bounces
            if self.moves[i] < MAX_ATTEMPTS
        }
        candidates = sorted(pending, key=lambda i: (self.moves[i], -i))
        keep_one = len(self._inflight[vm_idx]) - 1
        candidates = candidates[: max(0, min(max_cancel, keep_one))]
        for c_idx in candidates:
            self.rebalance_cancels += 1
            self._planned_bounces.add(c_idx)
            self.send_now(
                self.vm_placement[vm_idx],
                EventTag.CLOUDLET_CANCEL,
                data=self.cloudlets[c_idx],
            )
        return len(candidates)

    def activate_standby(self, count: int = 1) -> int:
        """Recruit up to ``count`` parked VMs (lowest index first)."""
        recruited = 0
        for vm_idx in np.flatnonzero(~self.active & self.alive)[: max(0, count)]:
            self.active[vm_idx] = True
            self.scale_ups += 1
            recruited += 1
        self._refresh_eligible()
        return recruited

    def drain_active(self, count: int = 1) -> int:
        """Park up to ``count`` idle active VMs (highest index first).

        Only VMs with no in-flight work are drained, and at least one
        eligible VM always remains.
        """
        drained = 0
        for vm_idx in reversed(np.flatnonzero(self.eligible)):
            if drained >= count or self.eligible.sum() <= 1:
                break
            if self._inflight[vm_idx] or self.backlog[vm_idx] > 0:
                continue
            self.active[vm_idx] = False
            self.scale_downs += 1
            drained += 1
        self._refresh_eligible()
        return drained


class OnlineCloudSimulation:
    """Run an online policy on a scenario under an arrival process.

    Parameters
    ----------
    scenario:
        Environment and cloudlet characteristics (arrival order = index
        order).
    policy:
        Online placement policy.
    arrivals:
        Arrival process (default: the paper's batch-at-zero).  A
        ``timeline`` that drives arrivals (``base_rate`` set) overrides
        this.
    seed:
        Root seed for arrivals, timeline compilation and the policy's
        random stream.
    timeline:
        Optional :class:`~repro.workloads.timeline.Timeline` compiled
        (deterministically, from ``seed``) into arrival dynamics, a fault
        plan and control-loop triggers.
    control:
        Optional :class:`~repro.cloud.control.ControlConfig`; attaches a
        MAPE-K :class:`~repro.cloud.control.ControlLoop` to the run.
    standby_vms:
        Park this many highest-indexed VMs as an inactive reserve without
        attaching a loop — the *uncontrolled* arm of storm comparisons
        (with ``control`` set, ``control.standby_vms`` wins).

    Every run places through one :class:`OnlineBroker`.  A run with a
    fault plan, a standby reserve or a loop also reports ``retries``,
    ``lost_mi``, ``recoveries`` and ``standby_vms`` in its ``info``.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        policy: OnlineScheduler,
        arrivals: ArrivalProcess | None = None,
        seed: int | None = 0,
        execution_model: ExecutionModel = "space-shared",
        *,
        timeline: "Timeline | None" = None,
        control: "ControlConfig | None" = None,
        standby_vms: int = 0,
    ) -> None:
        if execution_model not in ("space-shared", "time-shared"):
            raise ValueError(f"unknown execution model {execution_model!r}")
        check_number("standby_vms", standby_vms, ge=0, integer=True)
        self.scenario = scenario
        self.policy = policy
        self.arrivals = arrivals or BatchArrivals()
        self.seed = seed
        self.execution_model = execution_model
        self.timeline = timeline
        self.control = control
        self.standby_vms = standby_vms

    def run(self) -> SimulationResult:
        scenario = self.scenario
        context = SchedulingContext.from_scenario(scenario, self.seed)
        telemetry_before = _TEL.snapshot() if _TEL.enabled else None

        compiled = None
        arrivals = self.arrivals
        if self.timeline is not None:
            compiled = self.timeline.compile(scenario.num_vms, seed=self.seed)
            if compiled.arrivals is not None:
                arrivals = compiled.arrivals
        arrival_rng = spawn_rng(self.seed, f"arrivals/{scenario.name}")
        arrival_times = arrivals.sample(arrival_rng, scenario.num_cloudlets)

        env = build_simulation(scenario, execution_model=self.execution_model)
        sim, cloudlets = env.sim, env.cloudlets

        fault_plan = tuple(compiled.fault_plan) if compiled is not None else ()
        standby = (
            self.control.standby_vms if self.control is not None else self.standby_vms
        )
        broker = OnlineBroker(
            name="online-broker",
            vms=env.vms,
            cloudlets=cloudlets,
            arrival_times=arrival_times,
            policy=self.policy,
            context=context,
            vm_placement=env.vm_placement,
            standby_vms=standby,
        )
        sim.register(broker)

        env.inject_faults(fault_plan, broker)
        loop = None
        if self.control is not None:
            loop = ControlLoop(
                name="control-loop",
                broker=broker,
                config=self.control,
                triggers=compiled.triggers if compiled is not None else (),
            )
            sim.register(loop)

        with _TEL.span("sim.execute"):
            sim.run()
        if not broker.all_finished:
            raise RuntimeError(
                f"online run drained with {len(broker.finished)}/"
                f"{len(cloudlets)} cloudlets finished"
            )

        _, start, finish = cloudlet_times(cloudlets)
        fields: dict = {"policy": self.policy.name}
        if compiled is not None:
            fields["timeline"] = compiled.name
            fields["faults"] = len(fault_plan)
            if fault_plan:
                fields["first_fault_time"] = compiled.first_fault_time
        if self.control is not None or standby > 0 or fault_plan:
            fields["retries"] = broker.retries
            fields["lost_mi"] = float(sum(dc.lost_mi for dc in env.datacenters))
            fields["recoveries"] = int(sum(dc.recoveries for dc in env.datacenters))
            fields["standby_vms"] = standby
        if loop is not None:
            fields["control"] = loop.summary()
        info = run_info(
            "online-des", scenario, self.policy, self.seed, telemetry_before,
            fields, self.execution_model, arrivals=type(arrivals).__name__,
            timeline=fields.get("timeline"), standby_vms=standby,
            control=self.control is not None,
        )
        return simulation_result(
            scenario.name, self.policy.name, broker.decision_seconds,
            broker.assignment, start, finish,
            cloudlet_costs(context.arrays, broker.assignment), info,
            submission=arrival_times, events_processed=sim.events_processed,
        )


__all__ = ["MAX_ATTEMPTS", "OnlineBroker", "OnlineCloudSimulation"]
