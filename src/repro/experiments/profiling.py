"""Profiling helpers: one documented entry point for "profile this scheduler".

The hpc-parallel guideline this project follows is *no optimization without
measuring*.  :func:`profile_scheduling` is that one entry point: it runs a
scheduling decision under both observability layers at once —

* the :mod:`repro.obs` span timers, giving the *per-phase* view
  (``aco.construct`` vs ``aco.pheromone_update``, scheduler-level), and
* ``cProfile``, giving the *per-function* view below the spans.

The two render into a single :class:`ProfileReport` whose ``text`` starts
with the span table and ends with the classic cProfile top-N — no separate
telemetry bookkeeping, no ``cProfile`` boilerplate in experiment code.
:func:`profile_callable` does the same for any zero-arg callable.

Examples
--------
>>> from repro.experiments.profiling import profile_scheduling
>>> from repro.schedulers import AntColonyScheduler
>>> from repro.workloads import heterogeneous_scenario
>>> scenario = heterogeneous_scenario(20, 100, seed=0)
>>> report = profile_scheduling(AntColonyScheduler(num_ants=4, max_iterations=1), scenario)
>>> "function calls" in report.text
True

The span section names the scheduler's hot phases directly:

>>> "aco.construct" in report.text
True
>>> any(path.endswith("aco.construct") for path in report.telemetry.spans)
True

Telemetry capture restores the global switch afterwards, so profiling a
run never leaves instrumentation enabled behind your back:

>>> from repro import obs
>>> obs.is_enabled()
False
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.workloads.spec import ScenarioSpec


@dataclass(frozen=True)
class ProfileReport:
    """Captured profile: span telemetry plus a rendered cProfile table.

    ``text`` is the merged human-readable report (span table first, then
    the cProfile top-N); ``telemetry`` holds the structured span/counter
    snapshot for the profiled call so tooling can aggregate or export it
    via :mod:`repro.obs.export`.
    """

    text: str
    total_calls: int
    total_time: float
    result: Any
    telemetry: "obs.TelemetrySnapshot | None" = None

    def __str__(self) -> str:
        return self.text


def profile_callable(
    fn: Callable[[], Any],
    sort: str = "cumulative",
    top: int = 25,
    telemetry: bool = True,
) -> ProfileReport:
    """Run ``fn`` under cProfile (and, by default, span telemetry).

    With ``telemetry=True`` the :mod:`repro.obs` switch is forced on for
    the duration of the call (and restored afterwards); the spans and
    counters the call emitted are isolated via snapshot diff and merged
    into the report.  Pass ``telemetry=False`` to profile the exact
    production configuration with instrumentation disabled.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    profiler = cProfile.Profile()
    snapshot: "obs.TelemetrySnapshot | None" = None
    if telemetry:
        with obs.enabled():
            before = obs.snapshot()
            profiler.enable()
            try:
                result = fn()
            finally:
                profiler.disable()
            snapshot = obs.snapshot().diff(before)
    else:
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    sections = []
    if snapshot is not None and not snapshot.is_empty:
        sections.append(obs.render_telemetry(snapshot, title="telemetry"))
        sections.append("")
    sections.append(buffer.getvalue())
    return ProfileReport(
        text="\n".join(sections),
        total_calls=int(stats.total_calls),
        total_time=float(stats.total_tt),
        result=result,
        telemetry=snapshot,
    )


def profile_scheduling(
    scheduler: Scheduler,
    scenario: ScenarioSpec,
    seed: int | None = 0,
    sort: str = "cumulative",
    top: int = 25,
    telemetry: bool = True,
) -> ProfileReport:
    """Profile one scheduling decision on ``scenario``.

    This is the documented "profile this scheduler" entry point: the
    returned report's span table shows where the decision spent its time
    phase by phase, and the cProfile table breaks those phases down to
    functions.  See ``docs/observability.md`` for a worked walkthrough.
    """
    context = SchedulingContext.from_scenario(scenario, seed=seed)
    return profile_callable(
        lambda: scheduler.schedule_checked(context),
        sort=sort,
        top=top,
        telemetry=telemetry,
    )


__all__ = ["ProfileReport", "profile_callable", "profile_scheduling"]
