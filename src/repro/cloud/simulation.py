"""One-call scenario execution, and the run reducer every engine shares.

:class:`CloudSimulation` wires a :class:`~repro.workloads.spec.ScenarioSpec`
and a scheduler into the DES kernel: it times the scheduling decision
(the paper's *scheduling time*), builds datacenters/hosts/VMs/cloudlets,
runs the event loop and reduces the outcome to a
:class:`SimulationResult` carrying the paper's four metrics.

Every engine façade (DES, analytic fast path, streaming, online,
resilient) reduces its run through the same four functions here:
:func:`timed_schedule` (scheduling time), :func:`cloudlet_costs`
(processing cost), :func:`simulation_result` (Eq. 12/13 and total cost)
and :func:`run_info` (manifest plus telemetry diff).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Literal, Sequence

import numpy as np

from repro.cloud.broker import DatacenterBroker
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.cloudlet_scheduler import (
    CloudletSchedulerSpaceShared,
    CloudletSchedulerTimeShared,
)
from repro.cloud.datacenter import Datacenter
from repro.cloud.faults import FaultEvent, FaultInjector
from repro.cloud.host import Host
from repro.cloud.vm import Vm
from repro.core.engine import Simulation
from repro.core.entity import Entity
from repro.obs.manifest import capture_manifest
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.obs.telemetry import TelemetrySnapshot
from repro.metrics.definitions import (
    average_waiting_time,
    makespan,
    processing_cost,
    throughput,
    time_imbalance,
)
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.workloads.spec import ScenarioArrays, ScenarioSpec

ExecutionModel = Literal["space-shared", "time-shared"]


@dataclass
class SimulationResult:
    """Outcome of one (scenario, scheduler) execution.

    All per-cloudlet arrays are index-aligned with the scenario's cloudlet
    list.
    """

    scenario_name: str
    scheduler_name: str
    #: wall-clock seconds the scheduler spent deciding (paper metric 1).
    scheduling_time: float
    #: simulated makespan, Eq. 12 (paper metric 2).
    makespan: float
    #: degree of imbalance, Eq. 13 (paper metric 3).
    time_imbalance: float
    #: summed processing cost (paper metric 4, Fig. 6d).
    total_cost: float
    assignment: np.ndarray
    submission_times: np.ndarray
    start_times: np.ndarray
    finish_times: np.ndarray
    exec_times: np.ndarray
    #: per-cloudlet processing cost.
    costs: np.ndarray
    events_processed: int = 0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def num_cloudlets(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def average_waiting_time(self) -> float:
        """Mean submission→start delay."""
        return average_waiting_time(self.submission_times, self.start_times)

    @property
    def throughput(self) -> float:
        """Cloudlets finished per simulated second."""
        return throughput(self.finish_times)

    def summary(self) -> dict[str, float]:
        """The paper's four metrics as a flat dict (for reports/CSV)."""
        return {
            "scheduling_time_s": self.scheduling_time,
            "makespan": self.makespan,
            "time_imbalance": self.time_imbalance,
            "total_cost": self.total_cost,
        }

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> "Path":
        """Persist the full result (metrics + per-cloudlet arrays) as JSON."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": 1,
            "scenario_name": self.scenario_name,
            "scheduler_name": self.scheduler_name,
            "scheduling_time": self.scheduling_time,
            "makespan": self.makespan,
            "time_imbalance": self.time_imbalance,
            "total_cost": self.total_cost,
            "assignment": self.assignment.tolist(),
            "submission_times": self.submission_times.tolist(),
            "start_times": self.start_times.tolist(),
            "finish_times": self.finish_times.tolist(),
            "exec_times": self.exec_times.tolist(),
            "costs": self.costs.tolist(),
            "events_processed": self.events_processed,
            "info": {k: v for k, v in self.info.items() if _json_safe(v)},
        }
        path.write_text(json.dumps(payload))
        return path

    @classmethod
    def load(cls, path) -> "SimulationResult":
        """Reload a result written by :meth:`save`."""
        import json
        from pathlib import Path

        data = json.loads(Path(path).read_text())
        version = data.get("format_version")
        if version != 1:
            raise ValueError(f"unsupported result format version {version!r}")
        return cls(
            scenario_name=data["scenario_name"],
            scheduler_name=data["scheduler_name"],
            scheduling_time=data["scheduling_time"],
            makespan=data["makespan"],
            time_imbalance=data["time_imbalance"],
            total_cost=data["total_cost"],
            assignment=np.array(data["assignment"], dtype=np.int64),
            submission_times=np.array(data["submission_times"]),
            start_times=np.array(data["start_times"]),
            finish_times=np.array(data["finish_times"]),
            exec_times=np.array(data["exec_times"]),
            costs=np.array(data["costs"]),
            events_processed=data["events_processed"],
            info=dict(data["info"]),
        )


def _json_safe(value) -> bool:
    """True when ``value`` serialises to JSON without custom encoding."""
    return isinstance(value, (str, int, float, bool, type(None), list, dict))


def cloudlet_costs(arrays: ScenarioArrays, assignment: np.ndarray) -> np.ndarray:
    """Per-cloudlet processing cost of ``assignment`` over ``arrays``.

    The one pricing of every engine: whole scenarios, stream chunks, and
    one cloudlet per VM when the shard merge rebuilds constant workloads.
    """
    dc = arrays.vm_datacenter[assignment]
    return processing_cost(
        lengths=arrays.cloudlet_length,
        vm_mips=arrays.vm_mips[assignment],
        vm_ram=arrays.vm_ram[assignment],
        vm_size=arrays.vm_size[assignment],
        file_sizes=arrays.cloudlet_file_size,
        output_sizes=arrays.cloudlet_output_size,
        cost_per_cpu=arrays.dc_cost_per_cpu[dc],
        cost_per_mem=arrays.dc_cost_per_mem[dc],
        cost_per_storage=arrays.dc_cost_per_storage[dc],
        cost_per_bw=arrays.dc_cost_per_bw[dc],
    )


def timed_schedule(scheduler: Any, *inputs: Any) -> tuple[Any, float]:
    """Run ``scheduler.schedule_checked(*inputs)`` under the ``sim.schedule``
    span; returns the decision and its wall-clock seconds (paper metric 1).

    ``inputs`` is a batch scheduler's :class:`SchedulingContext`, or a
    workflow scheduler's ``(workflow, scenario)``.
    """
    with _TEL.span("sim.schedule"):
        t0 = time.perf_counter()
        decision = scheduler.schedule_checked(*inputs)
        return decision, time.perf_counter() - t0


def run_info(
    engine: str,
    scenario: Any,
    scheduler: Any,
    seed: int | None,
    telemetry_before: TelemetrySnapshot | None,
    fields: dict[str, Any],
    execution_model: str = "space-shared",
    **manifest_extra: Any,
) -> dict[str, Any]:
    """The ``info`` of one run, for every engine façade.

    Engine, execution model and run manifest (``manifest_extra`` lands in
    its ``extra``), then the façade's own ``fields``; with telemetry on
    (``telemetry_before`` taken at the start of the run), the run's
    telemetry diff as ``info["telemetry"]``.
    """
    manifest = capture_manifest(
        scenario=scenario, scheduler=scheduler, seed=seed, engine=engine,
        execution_model=execution_model, **manifest_extra,
    )
    info = {
        "engine": engine,
        "execution_model": execution_model,
        "manifest": manifest.to_dict(),
        **fields,
    }
    if telemetry_before is not None:
        info["telemetry"] = _TEL.snapshot().diff(telemetry_before).to_dict()
    return info


def cloudlet_times(cloudlets: list[Cloudlet]) -> tuple[np.ndarray, ...]:
    """``(submission, start, finish)`` times of DES cloudlets, index-aligned."""
    return tuple(
        np.array([getattr(c, name) for c in cloudlets])
        for name in ("submission_time", "exec_start_time", "finish_time")
    )


def simulation_result(
    scenario_name: str,
    scheduler_name: str,
    scheduling_time: float,
    assignment: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    costs: np.ndarray,
    info: dict[str, Any],
    *,
    submission: np.ndarray | None = None,
    completed: np.ndarray | None = None,
    events_processed: int = 0,
) -> SimulationResult:
    """Reduce one run's per-cloudlet times and costs to its result.

    Exec times are ``finish - start``.  Makespan (Eq. 12), time imbalance
    (Eq. 13) and total cost cover the ``completed`` cloudlets (default:
    all); the others cost nothing, and a run that completed none reports
    0 for both.  ``submission`` defaults to batch arrival at t=0.
    """
    exec_times = finish - start
    done = slice(None)
    if completed is not None:
        costs = np.where(completed, costs, 0.0)
        done = completed
    if completed is None or completed.any():
        run_makespan = makespan(start[done], finish[done])
        imbalance = time_imbalance(exec_times[done])
    else:  # every cloudlet dead-lettered (pathological fault plans)
        run_makespan = imbalance = 0.0
    return SimulationResult(
        scenario_name=scenario_name,
        scheduler_name=scheduler_name,
        scheduling_time=scheduling_time,
        makespan=run_makespan,
        time_imbalance=imbalance,
        total_cost=float(costs.sum()),
        assignment=assignment,
        submission_times=np.zeros_like(start) if submission is None else submission,
        start_times=start,
        finish_times=finish,
        exec_times=exec_times,
        costs=costs,
        events_processed=events_processed,
        info=info,
    )


def build_hosts_for_datacenter(scenario: ScenarioSpec, dc_idx: int) -> list[Host]:
    """Create enough hosts in datacenter ``dc_idx`` for its share of VMs.

    Host sizing comes from the :class:`~repro.workloads.spec.DatacenterSpec`;
    the count is derived from the aggregate PE/RAM/BW/storage demand of the
    VMs mapped to this datacenter (plus one spare host so allocation
    policies always have a choice).
    """
    dc_spec = scenario.datacenters[dc_idx]
    vm_indices = list(scenario.vms_in_datacenter(dc_idx))
    if not vm_indices:
        return [
            Host(
                host_id=0,
                mips_per_pe=dc_spec.host_mips,
                pes=dc_spec.host_pes,
                ram=dc_spec.host_ram,
                bw=dc_spec.host_bw,
                storage=dc_spec.host_storage,
            )
        ]
    vms = [scenario.vms[i] for i in vm_indices]
    need = max(
        math.ceil(sum(v.pes for v in vms) / dc_spec.host_pes),
        math.ceil(sum(v.ram for v in vms) / dc_spec.host_ram),
        math.ceil(sum(v.bw for v in vms) / dc_spec.host_bw),
        math.ceil(sum(v.size for v in vms) / dc_spec.host_storage),
        1,
    )
    max_vm_mips = max(v.mips for v in vms)
    if max_vm_mips > dc_spec.host_mips:
        raise ValueError(
            f"datacenter {dc_idx}: host PEs of {dc_spec.host_mips} MIPS cannot "
            f"run a {max_vm_mips} MIPS VM"
        )
    return [
        Host(
            host_id=h,
            mips_per_pe=dc_spec.host_mips,
            pes=dc_spec.host_pes,
            ram=dc_spec.host_ram,
            bw=dc_spec.host_bw,
            storage=dc_spec.host_storage,
        )
        for h in range(need + 1)
    ]


def make_cloudlet_scheduler(execution_model: ExecutionModel):
    """Instantiate the per-VM execution model named by ``execution_model``."""
    if execution_model == "space-shared":
        return CloudletSchedulerSpaceShared()
    if execution_model == "time-shared":
        return CloudletSchedulerTimeShared()
    raise ValueError(f"unknown execution model {execution_model!r}")


@dataclass
class SimulationEnvironment:
    """A fully wired DES instance for one scenario, ready for a broker.

    Produced by :func:`build_simulation` — the single canonical builder
    shared by the batch, online and fault/resilience façades, so fault runs
    cannot drift from the plain DES path.
    """

    sim: Simulation
    datacenters: list[Datacenter]
    vms: list[Vm]
    cloudlets: list[Cloudlet]
    #: vm index -> owning datacenter entity id.
    vm_placement: dict[int, int]
    #: vm index -> a fresh VM, built as the fleet was.
    build_vm: Callable[[int], Vm]

    def inject_faults(self, plan: Sequence[FaultEvent], owner: Entity) -> None:
        """Register an injector for a non-empty ``plan``; a recovered VM is
        rebuilt by :attr:`build_vm` and re-registered to ``owner``."""
        if plan:
            self.sim.register(FaultInjector(
                "fault-injector", plan, self.vm_placement,
                owner_id=owner.id, vm_factory=self.build_vm,
            ))


def build_simulation(
    scenario: ScenarioSpec,
    *,
    execution_model: ExecutionModel = "space-shared",
    trace: bool = False,
) -> SimulationEnvironment:
    """Build kernel + datacenters + VMs + cloudlets for ``scenario``.

    The caller registers its broker on the returned
    :attr:`SimulationEnvironment.sim`, then any fault plan through
    :meth:`SimulationEnvironment.inject_faults`, and runs it.
    """
    sim = Simulation(trace=trace)
    datacenters: list[Datacenter] = []
    for dc_idx, dc_spec in enumerate(scenario.datacenters):
        dc = Datacenter(
            name=f"dc-{dc_idx}",
            hosts=build_hosts_for_datacenter(scenario, dc_idx),
            characteristics=dc_spec.characteristics,
        )
        sim.register(dc)
        datacenters.append(dc)

    def build_vm(i: int) -> Vm:
        return scenario.vms[i].build(
            vm_id=i, cloudlet_scheduler=make_cloudlet_scheduler(execution_model)
        )

    vms = [build_vm(i) for i in range(len(scenario.vms))]
    cloudlets = [spec.build(cloudlet_id=i) for i, spec in enumerate(scenario.cloudlets)]
    vm_placement = {
        i: datacenters[scenario.vm_datacenter[i]].id for i in range(len(vms))
    }
    return SimulationEnvironment(
        sim=sim,
        datacenters=datacenters,
        vms=vms,
        cloudlets=cloudlets,
        vm_placement=vm_placement,
        build_vm=build_vm,
    )


class CloudSimulation:
    """Run one scheduler on one scenario through the DES engine.

    Parameters
    ----------
    scenario:
        The workload/environment description.
    scheduler:
        Batch scheduling policy.
    seed:
        Root seed for the scheduler's random stream.
    execution_model:
        Per-VM cloudlet execution semantics (paper default: space-shared).
    trace:
        Record the kernel event trace (tests/debugging only).

    Submissions reach their datacenter without delay: CloudSim's default,
    delay-free topology, as in the paper.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        scheduler: Scheduler,
        seed: int | None = 0,
        execution_model: ExecutionModel = "space-shared",
        trace: bool = False,
    ) -> None:
        if execution_model not in ("space-shared", "time-shared"):
            raise ValueError(f"unknown execution model {execution_model!r}")
        self.scenario = scenario
        self.scheduler = scheduler
        self.seed = seed
        self.execution_model = execution_model
        self.trace = trace

    def run(self) -> SimulationResult:
        """Schedule, simulate, and reduce to metrics."""
        scenario = self.scenario
        context = SchedulingContext.from_scenario(scenario, self.seed)
        telemetry_before = _TEL.snapshot() if _TEL.enabled else None
        decision, scheduling_time = timed_schedule(self.scheduler, context)

        with _TEL.span("sim.build"):
            env = build_simulation(
                scenario, execution_model=self.execution_model, trace=self.trace
            )
            broker = DatacenterBroker(
                name="broker",
                vms=env.vms,
                cloudlets=env.cloudlets,
                assignment=decision.assignment,
                vm_placement=env.vm_placement,
            )
            env.sim.register(broker)
        with _TEL.span("sim.execute"):
            env.sim.run()

        if not broker.all_finished:
            raise RuntimeError(
                f"simulation drained with {len(broker.finished)}/"
                f"{len(env.cloudlets)} cloudlets finished"
            )

        with _TEL.span("sim.reduce"):
            submission, start, finish = cloudlet_times(env.cloudlets)
            costs = cloudlet_costs(context.arrays, decision.assignment)
        info = run_info(
            "des", scenario, self.scheduler, self.seed, telemetry_before,
            decision.info, self.execution_model,
        )
        return simulation_result(
            scenario.name, decision.scheduler_name, scheduling_time,
            decision.assignment, start, finish, costs, info,
            submission=submission, events_processed=env.sim.events_processed,
        )


def quick_run(
    scheduler: Scheduler,
    num_vms: int = 20,
    num_cloudlets: int = 200,
    scenario_kind: Literal["heterogeneous", "homogeneous"] = "heterogeneous",
    seed: int | None = 0,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: generate a paper scenario and run it.

    Extra keyword arguments are forwarded to :class:`CloudSimulation`.
    """
    # Imported here: workloads import cloud modules, so a module-level import
    # would be circular.
    from repro.workloads.heterogeneous import heterogeneous_scenario
    from repro.workloads.homogeneous import homogeneous_scenario

    if scenario_kind == "heterogeneous":
        scenario = heterogeneous_scenario(num_vms, num_cloudlets, seed=seed)
    elif scenario_kind == "homogeneous":
        scenario = homogeneous_scenario(num_vms, num_cloudlets, seed=seed)
    else:
        raise ValueError(f"unknown scenario kind {scenario_kind!r}")
    return CloudSimulation(scenario, scheduler, seed=seed, **kwargs).run()


__all__ = [
    "CloudSimulation",
    "SimulationResult",
    "SimulationEnvironment",
    "build_simulation",
    "make_cloudlet_scheduler",
    "quick_run",
    "cloudlet_costs",
    "cloudlet_times",
    "run_info",
    "simulation_result",
    "timed_schedule",
    "build_hosts_for_datacenter",
]
