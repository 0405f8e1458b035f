"""Failure-aware recovery: retry policies, rescheduling, speculation.

Every batch recovery path of the study lives here, on top of the fault
model of :mod:`repro.cloud.faults`:

* :class:`RoundRobinRecoveryBroker` — the blind baseline: each bounced
  cloudlet is resubmitted at once to the next surviving VM in rotation.
* :class:`RetryPolicy` — *when* to retry a bounced cloudlet.  Policies
  bound total execution attempts (``max_attempts``); exceeding the bound
  dead-letters the cloudlet (it is abandoned deterministically and
  reported in ``SimulationResult.info["dead_letter"]``).
* :class:`ReschedulingBroker` — *where* to retry.  Bounced cloudlets are
  buffered per retry instant and re-placed in one batch by re-invoking the
  configured batch :class:`~repro.schedulers.base.Scheduler` over the
  sub-problem of (bounced cloudlets × surviving VMs), via
  :meth:`~repro.schedulers.base.SchedulingContext.restrict`.  The same
  bio-inspired policy that placed the batch also heals it.
* Speculative re-execution — an optional watchdog per dispatch: when a
  cloudlet has not returned within ``speculation_multiple ×`` its expected
  completion (queue backlog included), the broker cancels it
  (``CLOUDLET_CANCEL``) and the bounce re-enters the retry path on a
  different VM.  Modelled as cancel-and-restart, the conservative variant
  of speculation: the copy is launched only after the original is
  withdrawn, so one cloudlet never runs twice concurrently.

:func:`run_resilient` is the façade; its ``recovery`` argument picks the
broker.  With an empty fault plan either recovery (and, for rescheduling,
the default retry policy with speculation off) reproduces the plain
:class:`~repro.cloud.simulation.CloudSimulation` result bit-for-bit (a
property test pins this).
"""

from __future__ import annotations

import abc
import time
from typing import Literal, Sequence

import numpy as np

from repro.cloud.broker import DatacenterBroker
from repro.cloud.cloudlet import Cloudlet, CloudletStatus
from repro.cloud.datacenter import FaultNotice
from repro.cloud.faults import FaultEvent, validate_fault_plan
from repro.cloud.simulation import (
    ExecutionModel,
    SimulationResult,
    build_simulation,
    cloudlet_costs,
    cloudlet_times,
    run_info,
    simulation_result,
    timed_schedule,
)
from repro.core.rng import spawn_rng
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.core.tags import EventTag
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.workloads.spec import ScenarioSpec


# -- retry policies -------------------------------------------------------------


class RetryPolicy(abc.ABC):
    """Decides whether/when execution attempt ``attempt`` may happen.

    ``attempt`` counts *executions*: the initial dispatch is attempt 1, the
    first retry is attempt 2.  :meth:`next_delay` returns the delay before
    that attempt, or ``None`` once ``max_attempts`` is exhausted — the
    caller then dead-letters the cloudlet.
    """

    def __init__(self, max_attempts: int = 5) -> None:
        if not max_attempts >= 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts

    def next_delay(self, attempt: int, rng: np.random.Generator) -> float | None:
        """Delay before execution attempt ``attempt``; ``None`` = give up."""
        if attempt < 2:
            raise ValueError(f"retries start at attempt 2, got {attempt}")
        if attempt > self.max_attempts:
            return None
        return self._delay(attempt, rng)

    @abc.abstractmethod
    def _delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay for a permitted attempt (``2 <= attempt <= max_attempts``)."""


class ImmediateRetry(RetryPolicy):
    """Retry in the same instant the bounce is observed."""

    def _delay(self, attempt: int, rng: np.random.Generator) -> float:
        return 0.0


class ExponentialBackoffRetry(RetryPolicy):
    """Exponentially growing, jittered pause: ``base * factor^(attempt-2)``.

    The multiplicative jitter is drawn from the broker's seeded generator
    (uniform on ``[1-jitter, 1+jitter]``), so backoff schedules are
    reproducible per run seed while still decorrelating retry storms.
    """

    def __init__(
        self,
        base_delay: float = 0.5,
        factor: float = 2.0,
        max_delay: float = 60.0,
        jitter: float = 0.1,
        max_attempts: int = 5,
    ) -> None:
        super().__init__(max_attempts)
        # Each comparison is written so that NaN fails it.
        for name, value, low in (
            ("base_delay", base_delay, 0), ("max_delay", max_delay, 0), ("factor", factor, 1)
        ):
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.base_delay = base_delay
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter

    def _delay(self, attempt: int, rng: np.random.Generator) -> float:
        raw = min(self.max_delay, self.base_delay * self.factor ** (attempt - 2))
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw


# -- the rescheduling broker ---------------------------------------------------


class ReschedulingBroker(DatacenterBroker):
    """Recovers from failures by re-invoking the batch scheduler.

    Bounced cloudlets sharing a retry instant (e.g. every immediate retry
    caused by one host crash) are re-placed in a *single* scheduler call
    over the surviving VMs, so the recovery placement sees the whole
    bounced batch — the same optimisation scope the initial decision had.

    Parameters beyond :class:`~repro.cloud.broker.DatacenterBroker`:

    scheduler / context:
        The batch policy to re-invoke and the full scheduling context it
        originally saw (rescheduling restricts it).
    retry_policy:
        When to retry; see :class:`RetryPolicy`.
    rng:
        Seeded generator feeding backoff jitter.
    speculation_multiple:
        ``None`` disables speculation (default).  Otherwise a dispatch arms
        a watchdog at ``multiple ×`` the expected completion time; if the
        cloudlet is still out when it fires, the broker cancels and retries
        it elsewhere.
    """

    def __init__(
        self,
        name: str,
        vms,
        cloudlets,
        assignment,
        vm_placement,
        *,
        scheduler: Scheduler,
        context: SchedulingContext,
        retry_policy: RetryPolicy,
        rng: np.random.Generator,
        speculation_multiple: float | None = None,
    ) -> None:
        super().__init__(name, vms, cloudlets, assignment, vm_placement)
        if speculation_multiple is not None and not speculation_multiple > 1:
            raise ValueError(
                f"speculation_multiple must exceed 1, got {speculation_multiple}"
            )
        self.scheduler = scheduler
        self.context = context
        self.retry_policy = retry_policy
        self.rng = rng
        self.speculation_multiple = speculation_multiple

        #: execution attempts per cloudlet (1 = the initial dispatch).
        self.attempts = np.ones(len(self.cloudlets), dtype=np.int64)
        #: per-VM estimated outstanding execution seconds.
        self.backlog = np.zeros(len(self.vms))
        #: retry instant -> bounced cloudlet indices awaiting that instant.
        self._retry_buckets: dict[float, list[int]] = {}
        #: first bounce instant per still-unrecovered cloudlet (for MTTR).
        self._bounce_time: dict[int, float] = {}
        #: seconds from first bounce to successful finish, per recovered cloudlet.
        self.recovery_times: list[float] = []
        #: cloudlet indices abandoned after max_attempts.
        self.dead_letter: list[int] = []
        self.retries = 0
        self.reschedules = 0
        self.rescheduling_seconds = 0.0
        self.speculative_cancels = 0

    # -- fleet state -------------------------------------------------------------

    @property
    def final_assignment(self) -> np.ndarray:
        """The VM index each cloudlet was last dispatched to."""
        return self.assignment

    @property
    def dead_vm_indices(self) -> list[int]:
        """Indices of VMs currently believed dead."""
        return [int(i) for i in np.flatnonzero(~self.alive)]

    @property
    def all_finished(self) -> bool:
        """Every cloudlet either finished or was deterministically abandoned."""
        return len(self.finished) + len(self.dead_letter) == len(self.cloudlets)

    def _on_fault_notice(self, notice: FaultNotice) -> None:
        super()._on_fault_notice(notice)
        if notice.kind == "vm-failed":
            # Resident estimates died with the VM; bounces re-add theirs
            # at their retry dispatch.
            self.backlog[list(notice.vm_ids)] = 0.0

    def _on_timer(self, data: tuple) -> None:
        if data[0] == "retry":
            self._process_retry_batch(data[1])
        else:
            self._process_speculation(data[1], data[2])

    # -- dispatch ----------------------------------------------------------------

    def _exec_estimate(self, c_idx: int, vm_idx: int) -> float:
        arr = self.context.arrays
        return float(
            arr.cloudlet_length[c_idx] / (arr.vm_mips[vm_idx] * arr.vm_pes[vm_idx])
        )

    def submit(self, c_idx: int, vm_idx: int) -> None:
        """Book the cloudlet on ``vm_idx``, send it and arm its watchdog."""
        estimate = self._exec_estimate(c_idx, vm_idx)
        self.backlog[vm_idx] += estimate
        super().submit(c_idx, vm_idx)
        if self.speculation_multiple is not None:
            # Expected completion = everything queued ahead plus this
            # cloudlet's own run; the watchdog fires at a multiple of it.
            horizon = max(float(self.backlog[vm_idx]), estimate)
            self.schedule_self(
                self.speculation_multiple * horizon,
                EventTag.TIMER,
                data=("speculate", c_idx, int(self.attempts[c_idx])),
            )

    # -- returns and bounces -----------------------------------------------------

    def _unbook(self, cloudlet: Cloudlet) -> int:
        """Release a returned cloudlet's backlog estimate; return its index."""
        c_idx = cloudlet.cloudlet_id
        vm_idx = int(self.assignment[c_idx])
        self.backlog[vm_idx] = max(
            0.0, self.backlog[vm_idx] - self._exec_estimate(c_idx, vm_idx)
        )
        return c_idx

    def _on_finish(self, cloudlet: Cloudlet) -> None:
        c_idx = self._unbook(cloudlet)
        if c_idx in self._bounce_time:
            self.recovery_times.append(self.now - self._bounce_time.pop(c_idx))

    def _on_bounce(self, cloudlet: Cloudlet) -> None:
        c_idx = self._unbook(cloudlet)
        self._bounce_time.setdefault(c_idx, self.now)
        self.attempts[c_idx] += 1
        self._retry(c_idx)

    def _retry(self, c_idx: int) -> None:
        """Wait out the retry policy's delay, or dead-letter past its bound."""
        delay = self.retry_policy.next_delay(int(self.attempts[c_idx]), self.rng)
        if delay is None:
            self.dead_letter.append(c_idx)
            if _TEL.enabled:
                _TEL.count("resilience.dead_letters")
            return
        self.retries += 1
        if _TEL.enabled:
            _TEL.count("resilience.retries")
        due = self.now + delay
        bucket = self._retry_buckets.setdefault(due, [])
        bucket.append(c_idx)
        if len(bucket) == 1:
            self.schedule_self(delay, EventTag.TIMER, data=("retry", due))

    def _process_retry_batch(self, due: float) -> None:
        """Re-place every cloudlet whose retry matured at this instant."""
        indices = self._retry_buckets.pop(due)
        alive = np.flatnonzero(self.alive)
        if alive.size == 0:
            # Nothing to run on right now: dead-letter deterministically
            # rather than spin (recoveries later cannot resurrect these).
            self.dead_letter.extend(indices)
            return
        t0 = time.perf_counter()
        with _TEL.span("resilience.reschedule"):
            sub = self.context.restrict(np.asarray(indices, dtype=np.int64), alive)
            result = self.scheduler.schedule_checked(sub)
        self.rescheduling_seconds += time.perf_counter() - t0
        self.reschedules += 1
        if _TEL.enabled:
            _TEL.count("resilience.reschedules")
        for local_c, c_idx in enumerate(indices):
            self.submit(c_idx, int(alive[result.assignment[local_c]]))

    def _process_speculation(self, c_idx: int, attempt: int) -> None:
        """Watchdog: cancel a cloudlet that overstayed its expected runtime."""
        if attempt != int(self.attempts[c_idx]):
            return  # the attempt it watched already bounced or was retried
        cloudlet = self.cloudlets[c_idx]
        if cloudlet.status is CloudletStatus.SUCCESS or c_idx in self.dead_letter:
            return
        vm_idx = int(self.assignment[c_idx])
        self.speculative_cancels += 1
        if _TEL.enabled:
            _TEL.count("resilience.speculative_cancels")
        self.send_now(
            self.vm_placement[vm_idx], EventTag.CLOUDLET_CANCEL, data=cloudlet
        )


class RoundRobinRecoveryBroker(ReschedulingBroker):
    """Blind recovery: resubmit each bounce to the next surviving VM.

    The simplest self-healing rule, kept as the baseline that rescheduling
    is measured against.  Retries are immediate and unbounded: the retry
    policy is never consulted and nothing is dead-lettered.  The retry is
    sent from the bounce handler itself, not from a retry timer, so it is
    queued ahead of later events at the same instant.  The rotation cursor
    walks *VM indices*, not positions of the shrinking alive array, so the
    sequence stays stable across repeated failures.
    """

    _retry_cursor = 0  # the first ``+=`` turns this default into instance state

    def _retry(self, c_idx: int) -> None:
        self.retries += 1
        num_vms = len(self.vms)
        for _ in range(num_vms):
            vm_idx = self._retry_cursor % num_vms
            self._retry_cursor += 1
            if self.alive[vm_idx]:
                self.submit(c_idx, vm_idx)
                return
        raise RuntimeError("every VM has failed; cloudlets cannot be recovered")


# -- façade --------------------------------------------------------------------

Recovery = Literal["rescheduling", "round_robin"]
_BROKERS = {"rescheduling": ReschedulingBroker, "round_robin": RoundRobinRecoveryBroker}


def run_resilient(
    scenario: ScenarioSpec,
    scheduler: Scheduler,
    failures: Sequence[FaultEvent] = (),
    seed: int | None = 0,
    *,
    recovery: Recovery = "rescheduling",
    retry_policy: RetryPolicy | None = None,
    speculation_multiple: float | None = None,
    execution_model: ExecutionModel = "space-shared",
) -> SimulationResult:
    """Run a batch under a fault plan and recover the bounced cloudlets.

    With ``recovery="rescheduling"`` (the default) bounced cloudlets are
    re-placed by ``scheduler`` itself over the surviving VMs, retries pace
    themselves per ``retry_policy`` (default: seeded exponential backoff),
    and cloudlets exceeding ``max_attempts`` are dead-lettered (reported in
    ``info["dead_letter"]``; their finish/exec entries stay at the -1
    sentinel and the aggregate metrics are computed over the completed
    subset).

    With ``recovery="round_robin"`` each bounce is resubmitted at once to
    the next surviving VM (:class:`RoundRobinRecoveryBroker`); retries are
    unbounded, so ``retry_policy`` and ``speculation_multiple`` must stay
    unset, and a bounce with every VM dead raises ``RuntimeError``.

    With no failures, default policy and no speculation this reproduces
    :class:`~repro.cloud.simulation.CloudSimulation` output bit-for-bit.
    """
    if recovery not in _BROKERS:
        raise ValueError(f"unknown recovery {recovery!r}; expected one of {sorted(_BROKERS)}")
    tuning = {"retry_policy": retry_policy, "speculation_multiple": speculation_multiple}
    given = [name for name, value in tuning.items() if value is not None]
    if recovery == "round_robin" and given:
        raise ValueError(
            f"recovery='round_robin' retries at once and without limit; "
            f"it takes no {' or '.join(given)}"
        )
    validate_fault_plan(failures, scenario.num_vms)

    context = SchedulingContext.from_scenario(scenario, seed)
    telemetry_before = _TEL.snapshot() if _TEL.enabled else None
    decision, scheduling_time = timed_schedule(scheduler, context)

    env = build_simulation(scenario, execution_model=execution_model)
    broker = _BROKERS[recovery](
        name="broker",
        vms=env.vms,
        cloudlets=env.cloudlets,
        assignment=decision.assignment,
        vm_placement=env.vm_placement,
        scheduler=scheduler,
        context=context,
        retry_policy=retry_policy or ExponentialBackoffRetry(),
        rng=spawn_rng(seed, f"resilience/{scenario.name}"),
        speculation_multiple=speculation_multiple,
    )
    env.sim.register(broker)
    env.inject_faults(failures, broker)

    with _TEL.span("sim.execute"):
        env.sim.run()
    cloudlets = env.cloudlets
    if not broker.all_finished:
        raise RuntimeError(
            f"resilient run drained with {len(broker.finished)} finished + "
            f"{len(broker.dead_letter)} dead-lettered of {len(cloudlets)} cloudlets"
        )

    submission, start, finish = cloudlet_times(cloudlets)
    completed = np.array([c.is_finished for c in cloudlets], dtype=bool)
    mttr = float(np.mean(broker.recovery_times)) if broker.recovery_times else 0.0
    info = run_info(
        "des+resilience", scenario, scheduler, seed, telemetry_before,
        {
            "recovery": recovery,
            "failures": len(failures),
            "retries": broker.retries,
            "reschedules": broker.reschedules,
            "rescheduling_seconds": broker.rescheduling_seconds,
            "speculative_cancels": broker.speculative_cancels,
            "dead_letter": sorted(broker.dead_letter),
            "completed": int(completed.sum()),
            "failed_vms": broker.dead_vm_indices,
            "lost_mi": float(sum(dc.lost_mi for dc in env.datacenters)),
            "recoveries": int(sum(dc.recoveries for dc in env.datacenters)),
            "host_failures": int(sum(dc.host_failures for dc in env.datacenters)),
            "mttr": mttr,
            **decision.info,
        },
        execution_model,
        num_planned_faults=len(failures),
        **({"recovery": recovery} if recovery == "round_robin" else {}),
    )
    return simulation_result(
        scenario.name, decision.scheduler_name, scheduling_time,
        broker.final_assignment, start, finish,
        cloudlet_costs(context.arrays, broker.final_assignment), info,
        submission=submission, completed=completed,
        events_processed=env.sim.events_processed,
    )


__all__ = [
    "RetryPolicy",
    "ImmediateRetry",
    "ExponentialBackoffRetry",
    "ReschedulingBroker",
    "RoundRobinRecoveryBroker",
    "run_resilient",
]
