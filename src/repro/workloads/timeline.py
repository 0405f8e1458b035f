"""Declarative dynamic-scenario timelines.

The paper's experiments draw a scenario once and hold it fixed; real cloud
load *moves* — rates ramp through the day, bursts land, VMs drift slow and
recover.  A :class:`Timeline` describes that movement declaratively:

* events are anchored at ``"+2h"``-style offsets (:func:`parse_time`,
  :func:`parse_duration`) or plain seconds;
* numeric fields may be distribution *specs* (``{"value": 3}`` or
  ``{"distribution": "uniform", "min": 1, "max": 5}``) sampled at compile
  time from seeded streams (:func:`sample_from_spec`);
* :meth:`Timeline.compile` lowers the description deterministically into
  engine inputs: a :class:`TimelineArrivals` process (piecewise rates,
  linear ramps and burst batches, sampled by exact inversion of the
  cumulative rate), a validated fault plan
  (:class:`~repro.cloud.faults.VmFailure` / ``VmSlowdown`` events), and
  runtime :class:`Trigger` conditions for the MAPE-K loop
  (:mod:`repro.cloud.control`).

Determinism contract: compilation never reads a wall clock, and every
sampled field draws from ``spawn_rng(seed, "timeline/<entry index>")`` —
so the same ``(timeline, seed)`` pair always lowers to the bit-identical
event trace, and adding an entry never perturbs the draws of the others.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.workloads.arrivals import ArrivalProcess

#: duration-string units, in seconds.
_UNIT_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*([smhd]?)$")

#: metrics a Trigger may condition on (computed by the control loop's
#: Monitor phase each cadence tick).
MONITOR_METRICS = (
    "mean_backlog",
    "max_backlog",
    "imbalance",
    "dead_vms",
    "pending",
    "active_vms",
)
#: actions a fired Trigger may request from the Execute phase.
TRIGGER_ACTIONS = ("rebalance", "scale_up", "scale_down")
_TRIGGER_OPS = (">", ">=", "<", "<=")


def parse_duration(value: "str | float | int") -> float:
    """Parse a duration into seconds.

    Accepts plain non-negative numbers (seconds) or strings with a unit
    suffix — ``"45s"``, ``"30m"``, ``"2h"``, ``"1d"``, ``"1.5h"`` — plus
    bare numeric strings (seconds).
    """
    if isinstance(value, str):
        match = _DURATION_RE.match(value.strip())
        if not match:
            raise ValueError(f"invalid duration {value!r} (expected e.g. '30m', '2h')")
        value = float(match.group(1)) * _UNIT_SECONDS[match.group(2) or "s"]
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"duration must be a number or string, got {value!r}")
    return float(check_number("duration", value, ge=0))


def parse_time(value: "str | float | int") -> float:
    """Parse a timeline instant into seconds from the run start.

    ``"+2h"`` means two hours after t=0 (the descheduler-style offset
    form); bare numbers and unit strings are read as offsets too, so
    ``parse_time(90)``, ``parse_time("90s")`` and ``parse_time("+90s")``
    agree.
    """
    if isinstance(value, str) and value.strip().startswith("+"):
        return parse_duration(value.strip()[1:])
    return parse_duration(value)


def sample_from_spec(
    spec: "float | int | Mapping[str, Any]", rng: np.random.Generator
) -> float:
    """Resolve a scalar-or-distribution spec to one float.

    Plain numbers pass through.  Mappings support ``{"value": x}`` and
    ``{"distribution": ..., ...}`` with:

    * ``uniform`` — ``min``/``max`` bounds;
    * ``normal`` — ``mean``/``stddev`` (defaults derived from the bounds),
      clipped into ``[min, max]``;
    * ``exponential`` — ``mean``, clipped into ``[min, max]`` when given.

    Draws come only from ``rng``, so a seeded generator makes the sample
    reproducible.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return float(spec)
    if not isinstance(spec, Mapping):
        raise TypeError(f"expected a number or distribution mapping, got {spec!r}")
    if "value" in spec:
        return float(check_number("value", spec["value"]))
    dist = spec.get("distribution", "uniform")
    lo = float(check_number("min", spec.get("min", 0.0)))
    hi = float(check_number("max", spec.get("max", 1.0)))
    if lo > hi:
        raise ValueError(f"distribution bounds must satisfy min <= max, got {spec!r}")
    if dist == "uniform":
        return float(rng.uniform(lo, hi))
    if dist == "normal":
        mean = float(check_number("mean", spec.get("mean", (lo + hi) / 2.0)))
        stddev = float(check_number("stddev", spec.get("stddev", (hi - lo) / 6.0), ge=0))
        return float(np.clip(rng.normal(mean, stddev), lo, hi))
    if dist == "exponential":
        mean = float(check_number("mean", spec.get("mean", (lo + hi) / 2.0), gt=0))
        value = float(rng.exponential(mean))
        if "min" in spec or "max" in spec:
            value = float(np.clip(value, lo, hi))
        return value
    raise ValueError(f"unknown distribution {dist!r}")


def _check_spec(spec: "float | int | Mapping[str, Any]", label: str) -> None:
    """Validate a spec's shape eagerly (sampling happens at compile time)."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        check_number(label, spec)
    elif isinstance(spec, Mapping):
        sample_from_spec(spec, np.random.default_rng(0))  # shape check only
    else:
        raise TypeError(f"{label} must be a number or distribution mapping, got {spec!r}")


# -- timeline entries --------------------------------------------------------------


@dataclass(frozen=True)
class RateChange:
    """Step the arrival rate to ``rate`` cloudlets/second at ``at``."""

    at: "str | float"
    rate: "float | Mapping[str, Any]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", parse_time(self.at))
        _check_spec(self.rate, "rate")


@dataclass(frozen=True)
class RateRamp:
    """Ramp the arrival rate linearly to ``to_rate`` over ``duration``."""

    at: "str | float"
    duration: "str | float"
    to_rate: "float | Mapping[str, Any]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", parse_time(self.at))
        duration = check_number("duration", parse_duration(self.duration), gt=0)
        object.__setattr__(self, "duration", duration)
        _check_spec(self.to_rate, "to_rate")


@dataclass(frozen=True)
class Burst:
    """``count`` extra arrivals landing exactly at instant ``at``."""

    at: "str | float"
    count: "int | Mapping[str, Any]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", parse_time(self.at))
        if isinstance(self.count, Mapping):
            _check_spec(self.count, "count")
        else:
            check_number("count", self.count, ge=1, integer=True)


@dataclass(frozen=True)
class VmFault:
    """VM ``vm_index`` crashes at ``at``; recovers after ``downtime`` if set."""

    at: "str | float"
    vm_index: int
    downtime: "str | float | Mapping[str, Any] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", parse_time(self.at))
        check_number("vm_index", self.vm_index, ge=0, integer=True)
        if self.downtime is not None:
            if isinstance(self.downtime, str):
                object.__setattr__(self, "downtime", parse_duration(self.downtime))
            _check_spec(self.downtime, "downtime")


@dataclass(frozen=True)
class Drift:
    """VM ``vm_index`` straggles: MIPS × ``factor`` for ``duration``."""

    at: "str | float"
    vm_index: int
    duration: "str | float | Mapping[str, Any]"
    factor: "float | Mapping[str, Any]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", parse_time(self.at))
        check_number("vm_index", self.vm_index, ge=0, integer=True)
        if isinstance(self.duration, str):
            object.__setattr__(self, "duration", parse_duration(self.duration))
        _check_spec(self.duration, "duration")
        _check_spec(self.factor, "factor")


@dataclass(frozen=True)
class Trigger:
    """A conditional event: when ``metric op threshold``, fire ``action``.

    Evaluated at runtime by the MAPE-K loop's Monitor/Analyze phases (not
    at compile time — the condition depends on live simulation state).
    ``once=True`` (the default) disarms the trigger after its first firing.
    """

    metric: str
    op: str
    threshold: float
    action: str
    once: bool = True

    def __post_init__(self) -> None:
        if self.metric not in MONITOR_METRICS:
            raise ValueError(
                f"unknown trigger metric {self.metric!r}; expected one of "
                f"{MONITOR_METRICS}"
            )
        if self.op not in _TRIGGER_OPS:
            raise ValueError(f"unknown trigger op {self.op!r}; expected one of {_TRIGGER_OPS}")
        if self.action not in TRIGGER_ACTIONS:
            raise ValueError(
                f"unknown trigger action {self.action!r}; expected one of "
                f"{TRIGGER_ACTIONS}"
            )
        check_number("threshold", self.threshold)

    def holds(self, value: float) -> bool:
        """Evaluate the condition against a monitored metric value."""
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold


TimelineEntry = RateChange | RateRamp | Burst | VmFault | Drift

_ENTRY_KINDS: dict[str, type] = {
    "rate-change": RateChange,
    "rate-ramp": RateRamp,
    "burst": Burst,
    "vm-fault": VmFault,
    "drift": Drift,
}
_KIND_OF = {cls: kind for kind, cls in _ENTRY_KINDS.items()}


# -- the timeline ------------------------------------------------------------------


@dataclass(frozen=True)
class Timeline:
    """A declarative dynamic scenario: arrival dynamics + fault storms.

    Parameters
    ----------
    base_rate:
        Arrival rate (cloudlets/second) at t=0.  Required when any rate or
        burst entry is present; ``None`` leaves arrivals to the caller
        (the timeline then only drives faults and triggers).
    entries:
        Timeline events, in any order (sorted at compile time).
    triggers:
        Conditional events evaluated at runtime by the control loop.
    name:
        Label recorded in manifests and reports.
    """

    base_rate: float | None = None
    entries: tuple[TimelineEntry, ...] = ()
    triggers: tuple[Trigger, ...] = ()
    name: str = "timeline"

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "triggers", tuple(self.triggers))
        for entry in self.entries:
            if not isinstance(entry, (RateChange, RateRamp, Burst, VmFault, Drift)):
                raise TypeError(f"unknown timeline entry {entry!r}")
        for trigger in self.triggers:
            if not isinstance(trigger, Trigger):
                raise TypeError(f"unknown trigger {trigger!r}")
        drives_arrivals = any(
            isinstance(e, (RateChange, RateRamp, Burst)) for e in self.entries
        )
        if self.base_rate is None:
            if drives_arrivals:
                raise ValueError(
                    "timeline has rate/burst entries but no base_rate; arrival "
                    "dynamics need a starting rate"
                )
        else:
            check_number("base_rate", self.base_rate, gt=0)

    @property
    def fault_entries(self) -> tuple[TimelineEntry, ...]:
        return tuple(e for e in self.entries if isinstance(e, (VmFault, Drift)))

    def without_faults(self) -> "Timeline":
        """The same timeline with VM fault/drift entries removed.

        Used as the calm baseline arm of storm comparisons: identical
        arrival dynamics, no injected failures.
        """
        calm = tuple(e for e in self.entries if not isinstance(e, (VmFault, Drift)))
        return replace(self, entries=calm, name=f"{self.name}-calm")

    # -- compilation ---------------------------------------------------------------

    def compile(self, num_vms: int, seed: int | None = 0) -> "CompiledTimeline":
        """Lower the timeline into engine inputs, deterministically.

        Every distribution-specified field of entry ``i`` is sampled from
        ``spawn_rng(seed, f"timeline/{i}")``, so entries own independent
        streams and insertion order never couples their draws.  Rate
        entries become a piecewise-linear rate profile (overlapping ramps
        are rejected); fault entries become a plan accepted by
        :func:`~repro.cloud.faults.validate_fault_plan`.
        """
        from repro.cloud.faults import FaultEvent, VmFailure, VmSlowdown, validate_fault_plan

        check_number("num_vms", num_vms, ge=1, integer=True)
        rate_events: list[tuple[float, float, float]] = []  # (at, duration, to_rate)
        bursts: list[tuple[float, int]] = []
        plan: list[FaultEvent] = []
        for i, entry in enumerate(self.entries):
            rng = spawn_rng(seed, f"timeline/{i}") if seed is not None else np.random.default_rng()
            if isinstance(entry, RateChange):
                rate = sample_from_spec(entry.rate, rng)
                check_number(f"entry {i}: sampled rate", rate, gt=0)
                rate_events.append((float(entry.at), 0.0, rate))
            elif isinstance(entry, RateRamp):
                rate = sample_from_spec(entry.to_rate, rng)
                check_number(f"entry {i}: sampled to_rate", rate, gt=0)
                rate_events.append((float(entry.at), float(entry.duration), rate))
            elif isinstance(entry, Burst):
                count = int(round(sample_from_spec(entry.count, rng)))
                check_number(f"entry {i}: sampled burst count", count, ge=1)
                bursts.append((float(entry.at), count))
            elif isinstance(entry, VmFault):
                downtime = (
                    None
                    if entry.downtime is None
                    else sample_from_spec(entry.downtime, rng)
                )
                plan.append(VmFailure(entry.vm_index, float(entry.at), downtime))
            else:  # Drift
                duration = sample_from_spec(entry.duration, rng)
                factor = sample_from_spec(entry.factor, rng)
                plan.append(
                    VmSlowdown(entry.vm_index, float(entry.at), duration, factor)
                )

        arrivals = None
        if self.base_rate is not None:
            arrivals = TimelineArrivals(
                _build_rate_pieces(self.base_rate, rate_events),
                tuple(sorted(bursts)),
            )
        return CompiledTimeline(
            name=self.name,
            arrivals=arrivals,
            fault_plan=tuple(validate_fault_plan(plan, num_vms)),
            triggers=self.triggers,
        )

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe description (round-trips through :func:`timeline_from_dict`)."""
        entries = []
        for entry in self.entries:
            d: dict[str, Any] = {"kind": _KIND_OF[type(entry)]}
            for name in vars(entry):
                value = getattr(entry, name)
                if value is not None:
                    d[name] = dict(value) if isinstance(value, Mapping) else value
            entries.append(d)
        return {
            "name": self.name,
            "base_rate": self.base_rate,
            "entries": entries,
            "triggers": [dict(vars(t)) for t in self.triggers],
        }

    def summary(self) -> dict[str, Any]:
        """Manifest/cache-key payload: the full spec (it *is* the identity)."""
        return self.to_dict()


def timeline_from_dict(data: Mapping[str, Any]) -> Timeline:
    """Rebuild a :class:`Timeline` from :meth:`Timeline.to_dict` output."""
    entries = []
    for d in data.get("entries", ()):
        d = dict(d)
        kind = d.pop("kind", None)
        if kind not in _ENTRY_KINDS:
            raise ValueError(f"unknown timeline entry kind {kind!r}")
        entries.append(_ENTRY_KINDS[kind](**d))
    triggers = [Trigger(**dict(t)) for t in data.get("triggers", ())]
    return Timeline(
        base_rate=data.get("base_rate"),
        entries=tuple(entries),
        triggers=tuple(triggers),
        name=str(data.get("name", "timeline")),
    )


@dataclass(frozen=True)
class CompiledTimeline:
    """A timeline lowered to engine inputs (see :meth:`Timeline.compile`)."""

    name: str
    #: arrival process, or ``None`` when the timeline doesn't drive arrivals.
    arrivals: "TimelineArrivals | None"
    #: validated fault plan for a :class:`~repro.cloud.faults.FaultInjector`.
    fault_plan: tuple
    #: runtime conditions for the control loop.
    triggers: tuple[Trigger, ...]

    @property
    def first_fault_time(self) -> float:
        """Earliest fault instant, or ``nan`` when no faults are planned."""
        if not self.fault_plan:
            return math.nan
        return min(e.at_time for e in self.fault_plan)


# -- the arrival process -----------------------------------------------------------

#: one piece of the rate profile: rate(t) = r0 + slope * (t - start) on
#: [start, end); the final piece has end = inf and slope = 0.
_RatePiece = tuple[float, float, float, float]  # (start, end, r0, slope)


def _build_rate_pieces(
    base_rate: float, rate_events: Sequence[tuple[float, float, float]]
) -> tuple[_RatePiece, ...]:
    """Lower (at, duration, to_rate) events onto a piecewise-linear profile."""
    events = sorted(rate_events)
    pieces: list[_RatePiece] = []
    t, rate = 0.0, float(base_rate)
    for at, duration, to_rate in events:
        if at < t:
            raise ValueError(
                f"rate event at t={at} overlaps the ramp ending at t={t}; "
                "rate events must not overlap"
            )
        if at > t:
            pieces.append((t, at, rate, 0.0))
            t = at
        if duration > 0.0:
            pieces.append((t, t + duration, rate, (to_rate - rate) / duration))
            t += duration
        rate = float(to_rate)
    if rate <= 0:
        raise ValueError(f"final arrival rate must stay positive, got {rate}")
    pieces.append((t, math.inf, rate, 0.0))
    return tuple(pieces)


class TimelineArrivals(ArrivalProcess):
    """Arrivals under a piecewise-linear rate profile plus burst batches.

    The inhomogeneous-Poisson component is sampled by *exact inversion* of
    the cumulative rate: unit-rate exponential increments are mapped
    through Λ⁻¹ piece by piece (closed form on constant and linear
    pieces), so the sample is deterministic given ``rng`` and free of
    thinning rejections.  Burst batches contribute ``count`` arrivals at
    exactly their instant; the first ``n`` arrivals of the merged stream
    are returned.
    """

    def __init__(
        self,
        pieces: Sequence[_RatePiece],
        bursts: Sequence[tuple[float, int]] = (),
    ) -> None:
        if not pieces:
            raise ValueError("rate profile requires at least one piece")
        self.pieces = tuple(pieces)
        self.bursts = tuple(bursts)
        final_start, final_end, final_rate, final_slope = self.pieces[-1]
        if not math.isinf(final_end) or final_slope != 0.0 or final_rate <= 0:
            raise ValueError("final rate piece must be constant, positive and unbounded")

    def _poisson_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        times = np.empty(n)
        piece_idx = 0
        start, end, r0, slope = self.pieces[0]
        t = start
        for i in range(n):
            need = float(rng.exponential(1.0))  # unit-rate increment of Λ
            while True:
                rate_here = r0 + slope * (t - start)
                remaining = end - t
                if slope == 0.0:
                    # Λ gained on the rest of this piece: rate_here * remaining
                    if rate_here > 0 and need <= rate_here * remaining:
                        t += need / rate_here
                        break
                    need -= max(0.0, rate_here) * (0.0 if math.isinf(remaining) else remaining)
                else:
                    # Λ(t..end) = rate_here*Δ + slope*Δ²/2; solve for Δ at `need`
                    gain = rate_here * remaining + 0.5 * slope * remaining * remaining
                    if need <= gain:
                        disc = rate_here * rate_here + 2.0 * slope * need
                        t += (math.sqrt(max(0.0, disc)) - rate_here) / slope
                        break
                    need -= max(0.0, gain)
                piece_idx += 1
                start, end, r0, slope = self.pieces[piece_idx]
                t = start
            times[i] = t
        return times

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        check_number("n", n, ge=1, integer=True)
        poisson = self._poisson_times(rng, n)
        if not self.bursts:
            return poisson
        burst_times = np.concatenate(
            [np.full(count, at) for at, count in self.bursts]
        )
        merged = np.sort(np.concatenate([poisson, burst_times]), kind="stable")
        return merged[:n]


__all__ = [
    "parse_duration",
    "parse_time",
    "sample_from_spec",
    "MONITOR_METRICS",
    "TRIGGER_ACTIONS",
    "RateChange",
    "RateRamp",
    "Burst",
    "VmFault",
    "Drift",
    "Trigger",
    "TimelineEntry",
    "Timeline",
    "CompiledTimeline",
    "TimelineArrivals",
    "timeline_from_dict",
]
