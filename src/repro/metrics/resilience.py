"""Recovery metrics: how well a run absorbed injected faults.

These reduce a (baseline run, faulted run) pair — same scenario, same
scheduler, same seed — to the quantities the chaos harness reports:

* ``makespan_degradation`` — faulted/baseline makespan ratio (1.0 = the
  faults cost nothing; the headline resilience number);
* ``mttr`` — mean seconds from a cloudlet's first bounce to its eventual
  successful finish (computed by the broker, surfaced via ``info``);
* retries / dead-lettered work / lost MI — how much effort and progress
  the faults consumed;
* ``sla_violations`` / ``time_to_restabilize`` — closed-loop storm
  quantities (see :func:`storm_metrics`).

Edge-case contract
------------------

Degenerate inputs reduce to well-defined values instead of raising:

* no faults injected (the "faulted" run saw none): degradation ≈ 1.0,
  all counters 0, ``mttr`` 0.0 — the metrics simply report a clean run;
* no recovery observed (nothing ever bounced): ``mttr`` is 0.0 by
  definition (mean over an empty set of bounces is defined as zero);
* a degenerate baseline (zero, negative, or non-finite makespan, or an
  empty workload): ratio-valued metrics (``makespan_degradation``,
  ``completed_fraction``) are ``nan`` — "not comparable", not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.checks import check_number

if TYPE_CHECKING:  # simulation.py imports metrics; keep the cycle type-only
    from repro.cloud.simulation import SimulationResult


def makespan_degradation(baseline_makespan: float, faulted_makespan: float) -> float:
    """Faulted/baseline makespan ratio; 1.0 means faults cost nothing.

    A degenerate baseline (non-positive or non-finite) makes the ratio
    meaningless, so it is ``nan`` per the module's edge-case contract.

    >>> makespan_degradation(10.0, 12.5)
    1.25
    >>> makespan_degradation(0.0, 12.5)
    nan
    """
    if not math.isfinite(baseline_makespan) or baseline_makespan <= 0:
        return math.nan
    return faulted_makespan / baseline_makespan


@dataclass(frozen=True, slots=True)
class RecoveryMetrics:
    """Reduction of one (baseline, faulted) run pair."""

    #: faulted/baseline makespan ratio (1.0 = free recovery; ``nan`` if
    #: the baseline is degenerate).
    makespan_degradation: float
    #: fraction of cloudlets that eventually finished (``nan`` on an
    #: empty workload).
    completed_fraction: float
    #: resubmissions performed during recovery.
    retries: int
    #: cloudlets abandoned after exhausting their retry budget.
    dead_lettered: int
    #: MI of partial progress destroyed by crashes and cancels.
    lost_mi: float
    #: mean seconds from first bounce to successful finish (0 if no bounces).
    mttr: float
    #: batch scheduler re-invocations (0 for brokers that never reschedule).
    reschedules: int
    #: cloudlets whose flow time exceeded the SLO (0 without an SLO).
    sla_violations: int = 0
    #: seconds from the first fault to the last SLO-violating finish
    #: (0.0 when nothing violated or no fault fired).
    time_to_restabilize: float = 0.0

    def summary(self) -> dict[str, float]:
        """Flat dict for reports/CSV."""
        return {
            "makespan_degradation": self.makespan_degradation,
            "completed_fraction": self.completed_fraction,
            "retries": float(self.retries),
            "dead_lettered": float(self.dead_lettered),
            "lost_mi": self.lost_mi,
            "mttr": self.mttr,
            "reschedules": float(self.reschedules),
            "sla_violations": float(self.sla_violations),
            "time_to_restabilize": self.time_to_restabilize,
        }


def recovery_metrics(
    baseline: SimulationResult, faulted: SimulationResult
) -> RecoveryMetrics:
    """Compare a faulted run against its fault-free baseline.

    Both results must come from the same (scenario, scheduler, seed)
    triple; the faulted run's ``info`` must carry the resilience counters
    emitted by :func:`repro.cloud.resilience.run_resilient` under either
    recovery (missing counters default to zero so plain runs can be
    compared too).  Degenerate inputs follow the module's edge-case
    contract (``nan`` ratios, zero counters) rather than raising.
    """
    if baseline.scenario_name != faulted.scenario_name:
        raise ValueError(
            f"scenario mismatch: {baseline.scenario_name!r} vs "
            f"{faulted.scenario_name!r}"
        )
    info = faulted.info
    dead = info.get("dead_letter", [])
    completed = info.get("completed", faulted.num_cloudlets)
    completed_fraction = (
        completed / faulted.num_cloudlets if faulted.num_cloudlets else math.nan
    )
    return RecoveryMetrics(
        makespan_degradation=makespan_degradation(baseline.makespan, faulted.makespan),
        completed_fraction=completed_fraction,
        retries=int(info.get("retries", 0)),
        dead_lettered=len(dead),
        lost_mi=float(info.get("lost_mi", 0.0)),
        mttr=float(info.get("mttr", 0.0)),
        reschedules=int(info.get("reschedules", 0)),
    )


def storm_metrics(
    calm: SimulationResult,
    stormy: SimulationResult,
    sla_seconds: float | None = None,
) -> RecoveryMetrics:
    """Reduce a timeline-storm run against its calm (fault-free) twin.

    Both results come from :class:`~repro.cloud.online.OnlineCloudSimulation`
    on the *same* scenario, seed and arrival dynamics — ``calm`` ran the
    timeline with :meth:`~repro.workloads.timeline.Timeline.without_faults`,
    ``stormy`` the full timeline (with or without a control loop).  On top
    of :func:`recovery_metrics` this derives the closed-loop quantities:

    * ``sla_violations`` — cloudlets whose flow time (finish − arrival)
      exceeded ``sla_seconds`` (0 when no SLO is given);
    * ``time_to_restabilize`` — seconds from the storm's first fault
      (``info["first_fault_time"]``) to the last SLO-violating finish,
      clipped at 0.0; 0.0 when nothing violated or no fault fired.
    """
    base = recovery_metrics(calm, stormy)
    if sla_seconds is None:
        return base
    check_number("sla_seconds", sla_seconds, gt=0)
    flow = stormy.finish_times - stormy.submission_times
    violating = flow > sla_seconds
    violations = int(violating.sum())
    first_fault = float(stormy.info.get("first_fault_time", math.nan))
    restabilize = 0.0
    if violations and math.isfinite(first_fault):
        restabilize = max(0.0, float(stormy.finish_times[violating].max()) - first_fault)
    return RecoveryMetrics(
        makespan_degradation=base.makespan_degradation,
        completed_fraction=base.completed_fraction,
        retries=base.retries,
        dead_lettered=base.dead_lettered,
        lost_mi=base.lost_mi,
        mttr=base.mttr,
        reschedules=base.reschedules,
        sla_violations=violations,
        time_to_restabilize=restabilize,
    )


__all__ = [
    "RecoveryMetrics",
    "recovery_metrics",
    "makespan_degradation",
    "storm_metrics",
]
