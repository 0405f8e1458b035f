"""Online simulation: cloudlets arrive over time, scheduled per wave.

Extends the batch study to the dynamic setting the paper's introduction
motivates ("the demands for resources change dynamically, and cloud
providers are expected to ... react to these changes"):

* an :class:`OnlineBroker` entity receives arrival waves as timer events,
  asks an :class:`~repro.schedulers.online.OnlineScheduler` to place each
  cloudlet using the live backlog estimate, and submits it immediately;
* :class:`OnlineCloudSimulation` wires scenario + arrival process + policy
  together and reduces the run to the familiar
  :class:`~repro.cloud.simulation.SimulationResult` (with arrival-relative
  waiting/flow times).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.cloudlet import Cloudlet, CloudletStatus
from repro.cloud.faults import FaultInjector
from repro.cloud.simulation import (
    ExecutionModel,
    SimulationResult,
    build_simulation,
    cloudlet_costs,
    cloudlet_times,
    make_cloudlet_scheduler,
    run_info,
    simulation_result,
)
from repro.cloud.vm import Vm
from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.rng import spawn_rng
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.schedulers.base import SchedulingContext
from repro.schedulers.online import BatchAdapter, OnlineScheduler
from repro.workloads.arrivals import ArrivalProcess, BatchArrivals
from repro.workloads.spec import ScenarioSpec

if TYPE_CHECKING:  # control.py imports this module; keep the cycle type-only
    from repro.cloud.control import ControlConfig
    from repro.workloads.timeline import Timeline


class OnlineBroker(Entity):
    """Submits cloudlets as they arrive; places each with an online policy.

    The broker maintains ``backlog``: per-VM estimated outstanding execution
    seconds (submission adds the cloudlet's ``length/mips`` estimate on the
    chosen VM, completion removes it), which is the state the online
    policies key on.
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
    ) -> None:
        super().__init__(name)
        if len(arrival_times) != len(cloudlets):
            raise ValueError("arrival_times must be index-aligned with cloudlets")
        self.vms = vms
        self.cloudlets = cloudlets
        self.arrival_times = np.asarray(arrival_times, dtype=float)
        if self.arrival_times.size and self.arrival_times.min() < 0:
            raise ValueError("arrival times must be non-negative")
        self.policy = policy
        self.context = context
        self.vm_placement = dict(vm_placement)
        self.backlog = np.zeros(len(vms))
        self.finished: list[Cloudlet] = []
        self.assignment = np.full(len(cloudlets), -1, dtype=np.int64)
        #: accumulated wall-clock seconds inside the policy (scheduling time).
        self.decision_seconds = 0.0
        self._acks_outstanding = 0
        #: arrival instant -> cloudlet indices (a "wave").
        self._waves: dict[float, list[int]] = defaultdict(list)
        for idx, t in enumerate(self.arrival_times):
            self._waves[float(t)].append(idx)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.policy.start(self.context)
        self._acks_outstanding = len(self.vms)
        for idx, vm in enumerate(self.vms):
            self.send(self.vm_placement[idx], 0.0, EventTag.VM_CREATE, data=vm)

    def process_event(self, event: Event) -> None:
        if event.tag is EventTag.VM_CREATE_ACK:
            self._process_ack(event)
        elif event.tag is EventTag.TIMER:
            self._process_wave(event.data)
        elif event.tag is EventTag.CLOUDLET_RETURN:
            self._process_return(event)
        else:
            raise ValueError(f"{self.name}: unexpected event tag {event.tag!r}")

    def _process_ack(self, event: Event) -> None:
        vm, success = event.data
        if not success:
            raise RuntimeError(f"{self.name}: datacenter rejected vm {vm.vm_id}")
        self._acks_outstanding -= 1
        if self._acks_outstanding == 0:
            for instant in sorted(self._waves):
                self.schedule_self(
                    max(0.0, instant - self.now), EventTag.TIMER, data=instant
                )

    def _process_wave(self, instant: float) -> None:
        indices = self._waves[instant]
        t0 = time.perf_counter()
        if isinstance(self.policy, BatchAdapter):
            self.policy.begin_wave(np.asarray(indices, dtype=np.int64), self.context)
        for idx in indices:
            self._place_cloudlet(idx)
        self.decision_seconds += time.perf_counter() - t0

    def _choose_vm(self, idx: int) -> int:
        """Ask the policy for a placement; subclasses may mask/remap it."""
        vm_idx = self.policy.assign(idx, self.now, self.backlog, self.context)
        if not 0 <= vm_idx < len(self.vms):
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid VM index {vm_idx}"
            )
        return vm_idx

    def _place_cloudlet(self, idx: int) -> None:
        """Place one cloudlet: choose a VM, book the backlog, submit."""
        vm_idx = self._choose_vm(idx)
        arr = self.context.arrays
        self.assignment[idx] = vm_idx
        self.backlog[vm_idx] += float(
            arr.cloudlet_length[idx] / (arr.vm_mips[vm_idx] * arr.vm_pes[vm_idx])
        )
        cloudlet = self.cloudlets[idx]
        cloudlet.vm_id = self.vms[vm_idx].vm_id
        self.send_now(
            self.vm_placement[vm_idx], EventTag.CLOUDLET_SUBMIT, data=cloudlet
        )

    def _process_return(self, event: Event) -> None:
        cloudlet: Cloudlet = event.data
        if cloudlet.status is CloudletStatus.FAILED:
            raise RuntimeError(f"{self.name}: cloudlet {cloudlet.cloudlet_id} failed")
        vm_idx = self.assignment[cloudlet.cloudlet_id]
        arr = self.context.arrays
        self.backlog[vm_idx] -= float(
            arr.cloudlet_length[cloudlet.cloudlet_id]
            / (arr.vm_mips[vm_idx] * arr.vm_pes[vm_idx])
        )
        self.finished.append(cloudlet)

    @property
    def all_finished(self) -> bool:
        return len(self.finished) == len(self.cloudlets)


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

    With ``timeline=None`` and ``control=None`` (and ``standby_vms=0``)
    the run takes the original :class:`OnlineBroker` path and reproduces
    pre-existing results byte-for-byte.
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
        if standby_vms < 0:
            raise ValueError(f"standby_vms must be non-negative, got {standby_vms}")
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
        controlled = (
            self.control is not None or standby > 0 or bool(fault_plan)
        )
        if controlled:
            from repro.cloud.control import ControlledOnlineBroker, ControlLoop

            broker: OnlineBroker = ControlledOnlineBroker(
                name="online-broker",
                vms=env.vms,
                cloudlets=cloudlets,
                arrival_times=arrival_times,
                policy=self.policy,
                context=context,
                vm_placement=env.vm_placement,
                standby_vms=standby,
            )
        else:
            broker = OnlineBroker(
                name="online-broker",
                vms=env.vms,
                cloudlets=cloudlets,
                arrival_times=arrival_times,
                policy=self.policy,
                context=context,
                vm_placement=env.vm_placement,
            )
        sim.register(broker)

        if fault_plan:
            sim.register(
                FaultInjector(
                    name="timeline-faults",
                    plan=list(fault_plan),
                    vm_entity=env.vm_placement,
                    owner_id=broker.id,
                    vm_factory=lambda i: scenario.vms[i].build(
                        vm_id=i,
                        cloudlet_scheduler=make_cloudlet_scheduler(
                            self.execution_model
                        ),
                    ),
                )
            )
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
        if controlled:
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


__all__ = ["OnlineBroker", "OnlineCloudSimulation"]
