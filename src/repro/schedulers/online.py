"""Online (per-arrival) scheduling policies.

The paper's experiments are batch-mode, but its motivation is dynamic
demand; this module provides the policy interface for the online extension
(:mod:`repro.cloud.online`): cloudlets arrive over simulated time and the
policy places each one using only the information available *at that
moment* — the cloudlet's requirements plus the broker's live estimate of
each VM's outstanding work.

Two families:

* native online policies (:class:`OnlineRoundRobin`,
  :class:`OnlineLeastLoaded`, :class:`OnlineGreedyMCT`,
  :class:`OnlineRandom`), and
* :class:`BatchAdapter`, which replays any *batch* scheduler from this
  package one arrival wave at a time — demonstrating exactly what the
  batch formulations miss (they cannot see the backlog their earlier waves
  created).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.schedulers.base import Scheduler, SchedulingContext


class OnlineScheduler(abc.ABC):
    """Places one cloudlet at a time as it arrives."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Registry-style policy name."""

    def start(self, context: SchedulingContext) -> None:
        """Hook called once before the first arrival (default: no-op)."""

    @abc.abstractmethod
    def assign(
        self,
        cloudlet_idx: int,
        now: float,
        backlog: np.ndarray,
        context: SchedulingContext,
    ) -> int:
        """Return the VM index for ``cloudlet_idx``.

        Parameters
        ----------
        now:
            Current simulation time.
        backlog:
            Per-VM estimated outstanding execution seconds, maintained by
            the broker (grows on submission, shrinks on completion).
        """


class OnlineRoundRobin(OnlineScheduler):
    """Cyclic placement, ignoring state — the online Base Test."""

    def __init__(self) -> None:
        self._next = 0

    @property
    def name(self) -> str:
        return "online-roundrobin"

    def start(self, context: SchedulingContext) -> None:
        self._next = 0

    def assign(self, cloudlet_idx, now, backlog, context) -> int:
        vm = self._next
        self._next = (self._next + 1) % context.num_vms
        return vm


class OnlineRandom(OnlineScheduler):
    """Uniform random placement."""

    @property
    def name(self) -> str:
        return "online-random"

    def assign(self, cloudlet_idx, now, backlog, context) -> int:
        return int(context.rng.integers(0, context.num_vms))


class OnlineLeastLoaded(OnlineScheduler):
    """Send each arrival to the VM with the smallest outstanding work."""

    @property
    def name(self) -> str:
        return "online-leastloaded"

    def assign(self, cloudlet_idx, now, backlog, context) -> int:
        return int(np.argmin(backlog))


class OnlineGreedyMCT(OnlineScheduler):
    """Minimum completion time: backlog plus this cloudlet's execution."""

    @property
    def name(self) -> str:
        return "online-greedy-mct"

    def assign(self, cloudlet_idx, now, backlog, context) -> int:
        arr = context.arrays
        exec_times = arr.cloudlet_length[cloudlet_idx] / (arr.vm_mips * arr.vm_pes)
        return int(np.argmin(backlog + exec_times))


class BatchAdapter(OnlineScheduler):
    """Run a batch scheduler one arrival wave at a time.

    Arrivals sharing one simulation instant form a wave; the wrapped batch
    scheduler solves each wave as an independent batch problem (it never
    sees the live backlog — by design, so the adapter exposes the batch
    formulations' blind spot under sustained load).  A cloudlet the broker
    re-places after a later wave began (a crash bounce or a rebalance
    cancel) is solved as a wave of its own.
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._wave_assignment: dict[int, int] = {}
        #: every cloudlet some wave contained, so far.
        self._answered: set[int] = set()

    @property
    def name(self) -> str:
        return f"batch[{self.scheduler.name}]"

    def start(self, context: SchedulingContext) -> None:
        self._wave_assignment.clear()
        self._answered.clear()

    def begin_wave(self, cloudlet_indices: np.ndarray, context: SchedulingContext) -> None:
        """Solve one wave with the wrapped batch scheduler."""
        self._wave_assignment = self._solve(cloudlet_indices, context)
        self._answered.update(self._wave_assignment)

    def _solve(self, cloudlet_indices, context: SchedulingContext) -> dict[int, int]:
        indices = np.asarray(cloudlet_indices, dtype=np.int64)
        sub_context = SchedulingContext(
            arrays=context.arrays.take(indices, np.arange(context.num_vms)),
            rng=context.rng,
            scenario_name=context.scenario_name,
        )
        result = self.scheduler.schedule_checked(sub_context)
        return {int(ci): int(vm) for ci, vm in zip(indices, result.assignment)}

    def assign(self, cloudlet_idx, now, backlog, context) -> int:
        idx = int(cloudlet_idx)
        if idx in self._wave_assignment:
            return self._wave_assignment[idx]
        if idx in self._answered:
            return self._solve([idx], context)[idx]
        raise RuntimeError(
            f"cloudlet {cloudlet_idx} was not part of the current wave; "
            "the online broker must call begin_wave first"
        )


__all__ = [
    "OnlineScheduler",
    "OnlineRoundRobin",
    "OnlineRandom",
    "OnlineLeastLoaded",
    "OnlineGreedyMCT",
    "BatchAdapter",
]
