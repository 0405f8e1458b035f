"""Closed-loop MAPE-K control over the online simulation.

qoscloud's scenario executor (and the autonomic-computing literature it
follows) closes a monitor → analyze → plan → execute loop over a running
system; this module does the same over the online DES:

* :class:`~repro.cloud.online.OnlineBroker` carries the *mechanisms* a
  controller needs: an alive/active VM mask maintained from
  ``FAULT_NOTICE`` events, policy-driven retry of bounced (failed or
  cancelled) cloudlets over the eligible fleet, rebalance cancels that
  move queued work off a congested VM, and a standby pool the autoscaler
  can recruit or drain.
* :class:`ControlLoop` is the *policy*: a kernel entity ticking at a fixed
  cadence.  Monitor samples broker state (and mirrors it into telemetry
  gauges), Analyze detects imbalance / dead capacity / backlog pressure,
  Plan selects bounded actions under per-action cooldowns, Execute applies
  them through the broker.  Knowledge is the bounded history + last-action
  ledger the cooldowns read.

Actuation is bounded by design — at most ``max_moves_per_cycle`` rebalance
cancels per tick and one scaling step per tick, each behind a cooldown —
so a mis-tuned loop degrades into inaction rather than thrash.

Determinism: every decision is a pure function of simulation state; the
loop never reads a wall clock or an unseeded RNG, so a controlled run is
exactly reproducible from ``(scenario, policy, timeline, config, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.entity import Entity
from repro.core.eventqueue import Event
from repro.core.tags import EventTag
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.workloads.timeline import Trigger

if TYPE_CHECKING:  # online.py imports this module; keep the cycle type-only
    from repro.cloud.online import OnlineBroker


@dataclass(frozen=True)
class ControlConfig:
    """Tuning of one MAPE-K loop instance.

    All thresholds read the broker's *backlog* estimate (outstanding
    execution seconds per VM), the same state the online policies key on.
    """

    #: seconds between loop ticks (Monitor cadence).
    cadence: float = 1.0
    #: minimum seconds between two executions of the same action.
    cooldown: float = 5.0
    #: rebalance cancels issued per tick, at most.
    max_moves_per_cycle: int = 2
    #: max/mean eligible-VM backlog ratio that triggers a rebalance.
    imbalance_threshold: float = 3.0
    #: mean eligible-VM backlog (seconds) that triggers a scale-up;
    #: ``None`` disables pressure-driven scale-up.
    scale_up_backlog: float | None = None
    #: mean eligible-VM backlog below which one active VM is drained;
    #: ``None`` disables scale-down.
    scale_down_backlog: float | None = None
    #: VMs (highest indices) initially parked as recruitable reserve.
    standby_vms: int = 0
    #: flow-time SLO (seconds) recorded with storm metrics; ``None`` = no SLO.
    sla_seconds: float | None = None
    #: Monitor samples retained in the knowledge base.
    history: int = 64

    def __post_init__(self) -> None:
        if not math.isfinite(self.cadence) or self.cadence <= 0:
            raise ValueError(f"cadence must be positive and finite, got {self.cadence}")
        if not math.isfinite(self.cooldown) or self.cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {self.cooldown}")
        if self.max_moves_per_cycle < 1:
            raise ValueError(
                f"max_moves_per_cycle must be >= 1, got {self.max_moves_per_cycle}"
            )
        if not math.isfinite(self.imbalance_threshold) or self.imbalance_threshold <= 1:
            raise ValueError(
                f"imbalance_threshold must be > 1, got {self.imbalance_threshold}"
            )
        for name in ("scale_up_backlog", "scale_down_backlog", "sla_seconds"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value <= 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.standby_vms < 0:
            raise ValueError(f"standby_vms must be non-negative, got {self.standby_vms}")
        if self.history < 1:
            raise ValueError(f"history must be >= 1, got {self.history}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for manifests and cache keys."""
        return {name: getattr(self, name) for name in vars(self)}


class ControlLoop(Entity):
    """The MAPE-K controller: a kernel entity ticking every ``cadence``.

    Parameters
    ----------
    name:
        Entity name.
    broker:
        The :class:`~repro.cloud.online.OnlineBroker` under control.
    config:
        Loop tuning (cadence, thresholds, actuation bounds).
    triggers:
        Conditional events from a compiled timeline, evaluated each tick
        against the monitored metrics.
    """

    def __init__(
        self,
        name: str,
        broker: OnlineBroker,
        config: ControlConfig | None = None,
        triggers: Sequence[Trigger] = (),
    ) -> None:
        super().__init__(name)
        self.broker = broker
        self.config = config or ControlConfig()
        self.triggers = tuple(triggers)
        #: Knowledge: bounded metric history + last-execution time per action.
        self.history: list[tuple[float, dict[str, float]]] = []
        self.last_action: dict[str, float] = {}
        self.cycles = 0
        self.action_counts: dict[str, int] = {}
        self._fired: set[int] = set()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.schedule_self(self.config.cadence, EventTag.TIMER)

    def process_event(self, event: Event) -> None:
        if event.tag is not EventTag.TIMER:
            raise ValueError(f"{self.name}: unexpected event tag {event.tag!r}")
        if self.broker.all_finished:
            return  # work is done; let the simulation drain
        self.cycles += 1
        metrics = self.monitor()
        planned = self.plan(self.analyze(metrics))
        self.execute(planned, metrics)
        self.schedule_self(self.config.cadence, EventTag.TIMER)

    # -- Monitor -----------------------------------------------------------------

    def monitor(self) -> dict[str, float]:
        """Sample broker state into the metric vector triggers/analysis read."""
        broker = self.broker
        eligible = broker.eligible
        backlog = broker.backlog[eligible]
        mean_backlog = float(backlog.mean()) if backlog.size else 0.0
        max_backlog = float(backlog.max()) if backlog.size else 0.0
        imbalance = max_backlog / mean_backlog if mean_backlog > 0 else 1.0
        metrics = {
            "mean_backlog": mean_backlog,
            "max_backlog": max_backlog,
            "imbalance": imbalance,
            "dead_vms": float((~broker.alive).sum()),
            "pending": float(len(broker.cloudlets) - len(broker.finished)),
            "active_vms": float(eligible.sum()),
        }
        if _TEL.enabled:
            _TEL.count("control.cycles")
            for key, value in metrics.items():
                _TEL.gauge(f"control.{key}", value)
        self.history.append((self.now, metrics))
        if len(self.history) > self.config.history:
            del self.history[0]
        return metrics

    # -- Analyze -----------------------------------------------------------------

    def analyze(self, metrics: dict[str, float]) -> list[str]:
        """Map symptoms (and fired timeline triggers) to desired actions."""
        config = self.config
        desired: list[str] = []
        for i, trigger in enumerate(self.triggers):
            if trigger.once and i in self._fired:
                continue
            if trigger.holds(metrics[trigger.metric]):
                self._fired.add(i)
                desired.append(trigger.action)
        if metrics["dead_vms"] > 0:
            desired.append("scale_up")  # replace failed capacity from the reserve
        if (
            config.scale_up_backlog is not None
            and metrics["mean_backlog"] > config.scale_up_backlog
        ):
            desired.append("scale_up")
        if metrics["imbalance"] > config.imbalance_threshold:
            desired.append("rebalance")
        if (
            config.scale_down_backlog is not None
            and metrics["mean_backlog"] < config.scale_down_backlog
            and metrics["dead_vms"] == 0
        ):
            desired.append("scale_down")
        return desired

    # -- Plan --------------------------------------------------------------------

    def plan(self, desired: list[str]) -> list[str]:
        """Dedupe desired actions and apply per-action cooldowns."""
        planned: list[str] = []
        for action in dict.fromkeys(desired):
            last = self.last_action.get(action)
            if last is not None and self.now - last < self.config.cooldown:
                continue
            planned.append(action)
        return planned

    # -- Execute -----------------------------------------------------------------

    def execute(self, planned: list[str], metrics: dict[str, float]) -> None:
        broker = self.broker
        for action in planned:
            if action == "rebalance":
                eligible = broker.eligible
                masked = np.where(eligible, broker.backlog, -np.inf)
                target = int(np.argmax(masked))
                done = broker.cancel_for_rebalance(
                    target, self.config.max_moves_per_cycle
                )
            elif action == "scale_up":
                done = broker.activate_standby(1)
            elif action == "scale_down":
                done = broker.drain_active(1)
            else:  # pragma: no cover - analyze() only emits the three above
                raise ValueError(f"{self.name}: unknown action {action!r}")
            if done:
                self.last_action[action] = self.now
                self.action_counts[action] = self.action_counts.get(action, 0) + done
                if _TEL.enabled:
                    _TEL.count(f"control.action.{action}", done)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Loop activity for a run's ``info`` dict."""
        return {
            "cycles": self.cycles,
            "actions": dict(sorted(self.action_counts.items())),
            "retries": self.broker.retries,
            "rebalance_cancels": self.broker.rebalance_cancels,
            "scale_ups": self.broker.scale_ups,
            "scale_downs": self.broker.scale_downs,
        }


__all__ = ["ControlConfig", "ControlLoop"]
