"""Seeded chaos harness: randomized fault plans + recovery comparison.

The bio-inspired schedulers are pitched as *self-organising*; this module
measures that claim.  :func:`generate_fault_plan` draws a reproducible
fault plan — VM crashes (some recovering), correlated host crashes and
straggler windows — scaled to a run's fault-free makespan, and
:func:`run_chaos_suite` executes every (scheduler, seed) cell three ways:

1. fault-free baseline (:class:`~repro.cloud.simulation.CloudSimulation`),
2. the same plan under blind round-robin recovery
   (:func:`~repro.cloud.resilience.run_resilient` with
   ``recovery="round_robin"``),
3. the same plan under scheduler-driven rescheduling with retry backoff
   (:func:`~repro.cloud.resilience.run_resilient`, the default recovery),

reducing each faulted run to :class:`~repro.metrics.resilience.RecoveryMetrics`
so degradation ratios are directly comparable across schedulers and
recovery strategies.

Everything is derived from the root seed via tagged
:func:`~repro.core.rng.spawn_rng` streams, so a chaos cell is exactly
reproducible from ``(scenario, scheduler, seed, config)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # online/control import chaos-adjacent modules; stay lazy
    from repro.cloud.control import ControlConfig
    from repro.schedulers.online import OnlineScheduler
    from repro.workloads.timeline import Timeline

from repro.cloud.faults import (
    FaultEvent,
    HostFailure,
    VmFailure,
    VmSlowdown,
    validate_fault_plan,
)
from repro.cloud.resilience import RetryPolicy, run_resilient
from repro.cloud.simulation import CloudSimulation, SimulationResult
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.metrics.resilience import RecoveryMetrics, recovery_metrics, storm_metrics
from repro.schedulers.base import Scheduler
from repro.workloads.spec import ScenarioSpec


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of a randomized fault plan.

    Counts are drawn over *disjoint* VM sets (a crashed VM is never also a
    straggler anchor), which keeps generated plans valid by construction.
    All times are fractions of the baseline (fault-free) makespan, so the
    same config stresses small and large scenarios proportionally.
    """

    num_vm_failures: int = 1
    num_host_failures: int = 0
    num_stragglers: int = 1
    #: fraction of VM failures that later recover (rounded down).
    recover_fraction: float = 0.5
    #: fault instants are drawn uniformly in this makespan fraction window.
    fault_window: tuple[float, float] = (0.1, 0.6)
    #: recovery downtime, as a makespan fraction window.
    downtime_window: tuple[float, float] = (0.1, 0.3)
    #: straggler MIPS factor window (values in (0, 1)).
    factor_window: tuple[float, float] = (0.2, 0.6)
    #: straggler duration, as a makespan fraction window.
    duration_window: tuple[float, float] = (0.1, 0.4)

    def __post_init__(self) -> None:
        for name in ("num_vm_failures", "num_host_failures", "num_stragglers"):
            check_number(name, getattr(self, name), ge=0, integer=True)
        check_number("recover_fraction", self.recover_fraction, ge=0, le=1)
        for name in ("fault_window", "downtime_window", "duration_window", "factor_window"):
            lo, hi = getattr(self, name)
            check_number(f"{name} low", lo, gt=0)
            check_number(f"{name} high", hi, ge=lo)
        # A straggler factor slows its VM down, so it stays below 1.
        check_number("factor_window high", self.factor_window[1], lt=1)

    @property
    def num_anchors(self) -> int:
        """Distinct VMs the plan needs."""
        return self.num_vm_failures + self.num_host_failures + self.num_stragglers


def generate_fault_plan(
    scenario: ScenarioSpec,
    baseline_makespan: float,
    config: ChaosConfig,
    rng: np.random.Generator,
) -> list[FaultEvent]:
    """Draw a valid fault plan for ``scenario`` from ``rng``.

    Anchor VMs for crashes, host crashes and stragglers are sampled without
    replacement, so no VM carries two plan entries and the plan always
    passes :func:`~repro.cloud.faults.validate_fault_plan`.  At least one
    VM is left untouched (a plan that crashes the whole fleet measures
    nothing but dead-letters).
    """
    check_number("baseline makespan", baseline_makespan, gt=0)
    needed = config.num_anchors
    if needed == 0:
        return []
    crashing = config.num_vm_failures + config.num_host_failures
    if crashing >= scenario.num_vms:
        raise ValueError(
            f"plan crashes {crashing} of {scenario.num_vms} VMs; at least one "
            f"VM must survive"
        )
    if needed > scenario.num_vms:
        raise ValueError(
            f"plan needs {needed} distinct anchor VMs, scenario has "
            f"{scenario.num_vms}"
        )
    anchors = rng.choice(scenario.num_vms, size=needed, replace=False)
    span = baseline_makespan

    def window(bounds: tuple[float, float]) -> float:
        return float(rng.uniform(bounds[0], bounds[1]) * span)

    plan: list[FaultEvent] = []
    cursor = 0
    recovering = int(config.num_vm_failures * config.recover_fraction)
    for k in range(config.num_vm_failures):
        downtime = window(config.downtime_window) if k < recovering else None
        plan.append(
            VmFailure(int(anchors[cursor]), window(config.fault_window), downtime)
        )
        cursor += 1
    for _ in range(config.num_host_failures):
        plan.append(HostFailure(int(anchors[cursor]), window(config.fault_window)))
        cursor += 1
    for _ in range(config.num_stragglers):
        plan.append(
            VmSlowdown(
                int(anchors[cursor]),
                window(config.fault_window),
                duration=window(config.duration_window),
                factor=float(rng.uniform(*config.factor_window)),
            )
        )
        cursor += 1
    return validate_fault_plan(plan, scenario.num_vms)


@dataclass(frozen=True)
class ChaosCell:
    """One (scheduler, seed) cell of a chaos suite."""

    scheduler_name: str
    seed: int
    plan_size: int
    baseline: SimulationResult
    round_robin: SimulationResult
    rescheduling: SimulationResult
    round_robin_recovery: RecoveryMetrics
    rescheduling_recovery: RecoveryMetrics

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports: degradation under both recoveries."""
        return {
            "baseline_makespan": self.baseline.makespan,
            "rr_degradation": self.round_robin_recovery.makespan_degradation,
            "resched_degradation": self.rescheduling_recovery.makespan_degradation,
            "resched_retries": float(self.rescheduling_recovery.retries),
            "resched_dead_lettered": float(self.rescheduling_recovery.dead_lettered),
            "resched_mttr": self.rescheduling_recovery.mttr,
        }


@dataclass
class ChaosReport:
    """All cells of one suite plus aggregate views."""

    scenario_name: str
    config: ChaosConfig
    cells: list[ChaosCell] = field(default_factory=list)

    def mean_degradation(self, recovery: str = "rescheduling") -> dict[str, float]:
        """Mean makespan-degradation ratio per scheduler name."""
        if recovery not in ("rescheduling", "round_robin"):
            raise ValueError(f"unknown recovery strategy {recovery!r}")
        ratios: dict[str, list[float]] = {}
        for cell in self.cells:
            m = (
                cell.rescheduling_recovery
                if recovery == "rescheduling"
                else cell.round_robin_recovery
            )
            ratios.setdefault(cell.scheduler_name, []).append(m.makespan_degradation)
        return {name: float(np.mean(vals)) for name, vals in ratios.items()}

    def to_rows(self) -> list[dict[str, float | str | int]]:
        """Flat rows (one per cell) for CSV/tabular reporting."""
        return [
            {"scheduler": c.scheduler_name, "seed": c.seed, "faults": c.plan_size,
             **c.summary()}
            for c in self.cells
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form the ``report`` CLI renders; see :func:`load_report_rows`."""
        return {
            "kind": "chaos-report",
            "scenario": self.scenario_name,
            "config": dataclasses.asdict(self.config),
            "rows": self.to_rows(),
        }

    def save(self, path: "Path | str") -> Path:
        """Write :meth:`to_dict` as JSON; returns the path written."""
        return _save_report(self.to_dict(), path)


def run_chaos_suite(
    scenario: ScenarioSpec,
    schedulers: Mapping[str, Scheduler],
    seeds: Sequence[int] = (0,),
    config: ChaosConfig | None = None,
    *,
    retry_policy: RetryPolicy | None = None,
    execution_model: str = "space-shared",
) -> ChaosReport:
    """Run the full chaos grid: schedulers × seeds × {baseline, RR, resched}.

    Each cell generates its own plan from
    ``spawn_rng(seed, "chaos/<scenario>")`` — all schedulers at one seed
    face the *same* faults, so differences in degradation are attributable
    to the recovery placement, not the draw.
    """
    config = config or ChaosConfig()
    report = ChaosReport(scenario_name=scenario.name, config=config)
    for seed in seeds:
        plan_rng = spawn_rng(seed, f"chaos/{scenario.name}")
        plan: list[FaultEvent] | None = None
        for name, scheduler in schedulers.items():
            baseline = CloudSimulation(
                scenario, scheduler, seed=seed, execution_model=execution_model
            ).run()
            if plan is None:
                plan = generate_fault_plan(
                    scenario, baseline.makespan, config, plan_rng
                )
            rr = run_resilient(
                scenario, scheduler, plan, seed=seed,
                recovery="round_robin", execution_model=execution_model,
            )
            resched = run_resilient(
                scenario, scheduler, plan, seed=seed,
                retry_policy=retry_policy, execution_model=execution_model,
            )
            report.cells.append(
                ChaosCell(
                    scheduler_name=name,
                    seed=seed,
                    plan_size=len(plan),
                    baseline=baseline,
                    round_robin=rr,
                    rescheduling=resched,
                    round_robin_recovery=recovery_metrics(baseline, rr),
                    rescheduling_recovery=recovery_metrics(baseline, resched),
                )
            )
    return report


# -- timeline-driven storms ------------------------------------------------------


@dataclass(frozen=True)
class StormCell:
    """One (policy, seed) cell of a storm suite: three runs of one timeline.

    ``calm`` ran the timeline with faults stripped
    (:meth:`~repro.workloads.timeline.Timeline.without_faults`),
    ``uncontrolled`` the full storm with self-healing retry only, and
    ``controlled`` the same storm with a MAPE-K
    :class:`~repro.cloud.control.ControlLoop` attached.  All three share
    the scenario, seed, arrival dynamics and standby reserve, so the
    degradation difference is attributable to the loop alone.
    """

    policy_name: str
    seed: int
    faults: int
    calm: SimulationResult
    uncontrolled: SimulationResult
    controlled: SimulationResult
    uncontrolled_recovery: RecoveryMetrics
    controlled_recovery: RecoveryMetrics

    def summary(self) -> dict[str, float]:
        """Headline numbers: both arms' degradation, SLA misses, recovery."""
        return {
            "calm_makespan": self.calm.makespan,
            "uncontrolled_degradation": self.uncontrolled_recovery.makespan_degradation,
            "controlled_degradation": self.controlled_recovery.makespan_degradation,
            "uncontrolled_sla_violations": float(
                self.uncontrolled_recovery.sla_violations
            ),
            "controlled_sla_violations": float(self.controlled_recovery.sla_violations),
            "controlled_time_to_restabilize": (
                self.controlled_recovery.time_to_restabilize
            ),
            "controlled_retries": float(self.controlled_recovery.retries),
        }


@dataclass
class StormReport:
    """All cells of one timeline-storm suite plus aggregate views."""

    scenario_name: str
    timeline_name: str
    control: dict[str, Any]
    sla_seconds: float | None = None
    cells: list[StormCell] = field(default_factory=list)

    _ARMS = ("uncontrolled", "controlled")

    def _metrics(self, cell: StormCell, arm: str) -> RecoveryMetrics:
        if arm not in self._ARMS:
            raise ValueError(f"unknown storm arm {arm!r}; expected one of {self._ARMS}")
        return (
            cell.controlled_recovery
            if arm == "controlled"
            else cell.uncontrolled_recovery
        )

    def mean_degradation(self, arm: str = "controlled") -> float:
        """Mean makespan-degradation ratio over all cells of one arm."""
        values = [self._metrics(c, arm).makespan_degradation for c in self.cells]
        return float(np.mean(values)) if values else math.nan

    def sla_violation_count(self, arm: str = "controlled") -> int:
        """Total SLO-violating cloudlets over all cells of one arm."""
        return int(sum(self._metrics(c, arm).sla_violations for c in self.cells))

    def to_rows(self) -> list[dict[str, float | str | int]]:
        """Flat rows (one per cell) for CSV/tabular reporting."""
        return [
            {"policy": c.policy_name, "seed": c.seed, "faults": c.faults,
             **c.summary()}
            for c in self.cells
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form the ``report`` CLI renders; see :func:`load_report_rows`."""
        return {
            "kind": "storm-report",
            "scenario": self.scenario_name,
            "timeline": self.timeline_name,
            "control": self.control,
            "sla_seconds": self.sla_seconds,
            "mean_degradation": {
                arm: self.mean_degradation(arm) for arm in self._ARMS
            },
            "sla_violations": {
                arm: self.sla_violation_count(arm) for arm in self._ARMS
            },
            "rows": self.to_rows(),
        }

    def save(self, path: "Path | str") -> Path:
        """Write :meth:`to_dict` as JSON; returns the path written."""
        return _save_report(self.to_dict(), path)


def _save_report(payload: dict[str, Any], path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


REPORT_KINDS = ("chaos-report", "storm-report")


def load_report_rows(path: "Path | str") -> dict[str, Any]:
    """Load a saved chaos/storm report JSON back into its dict form.

    Raises ``ValueError`` when the file is not a recognisable report (so
    the CLI can fall through to other artifact kinds).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") not in REPORT_KINDS:
        raise ValueError(
            f"{path} is not a chaos/storm report (expected a 'kind' of "
            f"{REPORT_KINDS})"
        )
    if not isinstance(payload.get("rows"), list):
        raise ValueError(f"{path} is missing its 'rows' table")
    return payload


def demo_storm_timeline(num_vms: int) -> "Timeline":
    """A representative storm for benches, smokes and the ``storm`` CLI.

    Arrival pressure (a ramp into a burst) overlapping capacity loss (two
    recovering crashes and a straggler window) — enough dynamics that a
    control loop has something to win on, small enough to run in seconds.
    Fault anchors are drawn from the low VM indices so any fleet of at
    least four VMs can host it.
    """
    from repro.workloads.timeline import Burst, Drift, RateRamp, Timeline, VmFault

    if num_vms < 4:
        raise ValueError(f"demo storm needs at least 4 VMs, got {num_vms}")
    return Timeline(
        base_rate=8.0,
        entries=(
            RateRamp("+5s", "10s", {"distribution": "uniform", "min": 12, "max": 16}),
            Burst("+8s", 30),
            VmFault("+4s", 1, downtime="6s"),
            VmFault("+9s", 3, downtime="8s"),
            Drift("+3s", 2, duration=20.0, factor=0.25),
        ),
        name="demo-storm",
    )


def run_storm_suite(
    scenario: ScenarioSpec,
    policies: Mapping[str, Callable[[], "OnlineScheduler"]],
    timeline: "Timeline",
    control: "ControlConfig",
    seeds: Sequence[int] = (0,),
    *,
    sla_seconds: float | None = None,
    execution_model: str = "space-shared",
) -> StormReport:
    """Run the storm grid: policies × seeds × {calm, uncontrolled, controlled}.

    Per cell the same compiled timeline is run three ways on the online
    engine: faults stripped (calm twin), full storm with self-healing
    retry only (uncontrolled — the standby reserve exists but nothing
    recruits it), and full storm with the MAPE-K loop attached
    (controlled).  ``sla_seconds`` defaults to ``control.sla_seconds``.
    Deterministic: a cell is a pure function of
    ``(scenario, policy, timeline, control, seed)``.
    """
    from repro.cloud.online import OnlineCloudSimulation

    if not timeline.fault_entries:
        raise ValueError(
            f"timeline {timeline.name!r} has no fault entries; a storm suite "
            "needs faults to measure recovery against"
        )
    if sla_seconds is None:
        sla_seconds = control.sla_seconds
    report = StormReport(
        scenario_name=scenario.name,
        timeline_name=timeline.name,
        control=control.to_dict(),
        sla_seconds=sla_seconds,
    )
    calm_timeline = timeline.without_faults()
    for seed in seeds:
        faults = len(timeline.compile(scenario.num_vms, seed=seed).fault_plan)
        for name, make_policy in policies.items():
            calm = OnlineCloudSimulation(
                scenario, make_policy(), seed=seed,
                execution_model=execution_model,
                timeline=calm_timeline, standby_vms=control.standby_vms,
            ).run()
            uncontrolled = OnlineCloudSimulation(
                scenario, make_policy(), seed=seed,
                execution_model=execution_model,
                timeline=timeline, standby_vms=control.standby_vms,
            ).run()
            controlled = OnlineCloudSimulation(
                scenario, make_policy(), seed=seed,
                execution_model=execution_model,
                timeline=timeline, control=control,
            ).run()
            report.cells.append(
                StormCell(
                    policy_name=name,
                    seed=seed,
                    faults=faults,
                    calm=calm,
                    uncontrolled=uncontrolled,
                    controlled=controlled,
                    uncontrolled_recovery=storm_metrics(
                        calm, uncontrolled, sla_seconds
                    ),
                    controlled_recovery=storm_metrics(calm, controlled, sla_seconds),
                )
            )
    return report


__all__ = [
    "ChaosConfig",
    "ChaosCell",
    "ChaosReport",
    "StormCell",
    "StormReport",
    "generate_fault_plan",
    "run_chaos_suite",
    "run_storm_suite",
    "demo_storm_timeline",
    "load_report_rows",
    "REPORT_KINDS",
]
