"""Streaming scheduler protocol: batch admission over scenario chunks.

A :class:`StreamingScheduler` consumes a
:class:`~repro.workloads.streaming.ScenarioChunks` without materialising
the full workload: :meth:`StreamingScheduler.open` creates a fresh
:class:`ChunkAssigner` whose :meth:`ChunkAssigner.assign` maps each
cloudlet chunk to VM indices, carrying per-VM accumulator state across
chunks.  Because every ``open()`` builds its state from scratch, two runs
of one scheduler instance can never leak accumulators into each other —
the property suite pins this for the in-memory schedulers too.

Each paper algorithm — round-robin (``round_robin.py``), greedy-MCT
(``greedy.py``), HBO (``hbo.py``) and RBS (``rbs.py``) — is *one* class
implementing this protocol.  The protocol is itself a
:class:`~repro.schedulers.base.Scheduler`: its inherited
:meth:`StreamingScheduler.schedule` views the batch context as a
single-chunk stream, opens it and assigns that one chunk.  So the same
code answers the registry, the streaming engine, the shard planner and
the serving layer, and assignments are identical for any chunk size and
shard count (pinned in ``tests/properties`` against the scalar reference
oracles in ``tests/schedulers/oracles.py``).

Every assigner holds strictly O(num_vms + chunk_size) state, which is
what unlocks the 100M-cloudlet benchmark point (pinned by the
bounded-state property test in ``tests/properties``).  HBO and RBS keep
``admits_online = False``: their first decision depends on
``num_cloudlets`` (HBO's global group ordering, RBS's ω/start draw
split), so their ``open()`` pre-scans or fast-forwards over the stream.

Four placements are cyclic runs over a list of VMs: round-robin itself,
greedy-MCT with constant cloudlets on a uniform fleet, HBO's scouts with
constant cloudlets on identical VMs, and RBS's Step 6 inside a group.
Each builds its runs with :func:`cyclic_take`.

Schedulers without a streaming form (the metaheuristics) are explicitly
in-memory-only: :func:`as_streaming` wraps them in
:class:`InMemoryFallback`, which schedules once over the stream's own
columns (``ScenarioChunks.to_arrays()``: the chunk itself for a one-chunk
stream, one concatenation per cloudlet column otherwise) and serves the
assignment in chunk slices.  ``FastSimulation`` wraps *every* scheduler
this way, so its timed step is always the batch decision.

Example::

    >>> import numpy as np
    >>> from repro.core.rng import spawn_rng
    >>> from repro.workloads.streaming import homogeneous_stream
    >>> from repro.schedulers.streaming import make_streaming_scheduler
    >>> stream = homogeneous_stream(3, 8, chunk_size=5, seed=0)
    >>> assigner = make_streaming_scheduler("basetest").open(
    ...     stream, spawn_rng(0, f"scheduler/{stream.name}"))
    >>> [assigner.assign(chunk, off).tolist() for off, chunk in stream]
    [[0, 1, 2, 0, 1], [2, 0, 1]]
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ScenarioChunks


def cyclic_take(members: np.ndarray, first: int, k: int) -> np.ndarray:
    """``members[(first + np.arange(k)) % members.size]``, built by slicing.

    The ``k`` placements of a cyclic run over ``members`` that starts at
    position ``first`` of the cycle (see the module docstring's list of
    cyclic placements).  A run that does not wrap is one slice, a run
    that wraps once is two, and only a run that wraps again tiles the
    cycle.  No per-element ``%`` or ``//`` is computed, and the result
    never shares memory with ``members``.
    """
    size = members.size
    start = first % size
    if start + k <= size:
        return members[start : start + k].copy()
    if start + k <= 2 * size:
        return np.concatenate((members[start:], members[: start + k - size]))
    # np.tile repeats in one C loop; np.resize concatenates one copy per lap.
    rolled = np.concatenate((members[start:], members[:start]))
    return np.tile(rolled, -(-k // size))[:k]


class ChunkAssigner(abc.ABC):
    """Per-run assignment state; produced by :meth:`StreamingScheduler.open`.

    ``assign`` is called once per chunk, in index order, and must return
    the chunk's cloudlet→VM mapping.  All cross-chunk state lives on the
    assigner, never on the scheduler, so reusing a scheduler instance is
    always safe.
    """

    @abc.abstractmethod
    def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
        """VM indices (int64, one per chunk cloudlet) for this chunk."""

    def info(self) -> dict[str, Any]:
        """Diagnostics mirroring ``SchedulingResult.info`` (after the run)."""
        return {}

    def carry_out(self) -> "dict[str, Any] | None":
        """Snapshot of the cross-chunk state at the current position.

        Feeding the snapshot back through ``open(stream, rng, carry=...)``
        resumes assignment exactly where this assigner stands — the hook
        the shard planner uses to make a shard boundary semantically
        identical to a chunk boundary.  ``None`` means "no state needed"
        (offset-pure assigners).  Assigners that cannot be resumed raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support carried state; "
            "its scheduler must override plan_carries() to shard"
        )


class StreamingScheduler(Scheduler):
    """A scheduling policy that admits cloudlets chunk by chunk.

    Subclasses implement :meth:`open` (and :attr:`name`); the batch
    :meth:`schedule` is inherited, so one class is the registry
    scheduler, the streaming scheduler, the shard planner and the served
    assigner at once.
    """

    #: True for native chunk-wise policies; the in-memory fallback says False.
    streaming_native = True

    #: True when ``open()`` derives all state from the resident fleet
    #: arrays — no pre-scan of the cloudlet stream, no monolithic RNG
    #: draws sized by ``num_cloudlets`` — so the assigner can admit
    #: batches whose total count is unknown in advance.  This is the
    #: property the serving layer (``repro.serve``) needs to answer live
    #: submissions bit-identically to an offline replay; HBO and RBS
    #: stay False because their first decision depends on the whole
    #: workload (global group ordering / the ω-then-start draw split).
    admits_online = False

    @abc.abstractmethod
    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        """Create per-run state (may pre-scan the re-iterable stream).

        ``carry=None`` starts from scratch (the serial path).  A carry
        produced by :meth:`plan_carries` / :meth:`ChunkAssigner.carry_out`
        starts mid-stream instead, with the accumulator state a serial run
        would have at that point — assignments from the carried position
        onward are then bit-identical to the serial run's.
        """

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        """The batch decision: ``context`` as one chunk of a stream.

        Views the context's columns as a single-chunk stream (no copies,
        same scenario name), opens it with the context's generator and
        assigns that one chunk.
        """
        stream = ScenarioChunks.from_arrays(context.arrays, name=context.scenario_name)
        assigner = self.open(stream, context.rng)
        return SchedulingResult(
            assignment=assigner.assign(context.arrays, 0),
            scheduler_name=self.name,
            info=assigner.info(),
        )

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        """One carried-in state per :class:`~repro.workloads.streaming.ShardPlan`.

        Generic fallback: replay the serial assignment pass in the caller
        and snapshot ``carry_out()`` at every shard boundary — exact for
        any scheduler whose assigner supports ``carry_out``, at the cost
        of scheduling serially (the execution fold still parallelises).
        Offset-pure and precomputing schedulers override this with O(1)
        or slicing plans.
        """
        assigner = self.open(stream, rng)
        carries: "list[dict[str, Any] | None]" = []
        for i, plan in enumerate(plans):
            carries.append(assigner.carry_out())
            if i == len(plans) - 1:
                break
            for offset, chunk in stream.iter_range(plan.chunk_start, plan.chunk_stop):
                assigner.assign(chunk, offset)
        return carries

    def merge_info(
        self, infos: "list[dict[str, Any]]", num_cloudlets: int
    ) -> dict[str, Any]:
        """Run diagnostics from the shards' ``ChunkAssigner.info()``, in order.

        The last shard's assigner ends in the serial run's final state, so
        by default its diagnostics are the serial diagnostics.  Schedulers
        whose diagnostics add up across shards override this.
        """
        return infos[-1]


# -- fallback for in-memory-only schedulers ---------------------------------


class _PrecomputedAssigner(ChunkAssigner):
    """Serves index-ordered slices of a fully precomputed assignment.

    ``base`` is the absolute cloudlet offset of ``assignment[0]`` — shard
    executors hand workers just their slice, so a worker's chunk offsets
    are rebased into the slice here.
    """

    def __init__(
        self, assignment: np.ndarray, info: dict[str, Any], base: int = 0
    ) -> None:
        self.assignment = assignment
        self.base = base
        self._info = info

    def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
        lo = offset - self.base
        return self.assignment[lo : lo + chunk.num_cloudlets]

    def info(self) -> dict[str, Any]:
        return dict(self._info)


class InMemoryFallback(StreamingScheduler):
    """Adapter declaring a policy in-memory-only.

    ``open()`` gathers the stream's cloudlet columns into one
    :class:`~repro.workloads.spec.ScenarioArrays`
    (``ScenarioChunks.to_arrays()``: O(n) memory — the point of the
    declaration — but no per-cloudlet objects), runs the wrapped
    scheduler's ``schedule_checked`` once over that context, and serves
    the assignment in chunk slices.  The scheduler sees the same RNG the
    streaming engine derived, so results match ``FastSimulation`` on the
    equivalent spec.  Shard carries are slices of that one assignment.
    """

    streaming_native = False

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler

    @property
    def name(self) -> str:
        return self.scheduler.name

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        if carry is not None:
            return _PrecomputedAssigner(
                np.asarray(carry["assignment"], dtype=np.int64),
                dict(carry["info"]),
                base=int(carry["base"]),
            )
        context = SchedulingContext(
            arrays=stream.to_arrays(), rng=rng, scenario_name=stream.name
        )
        decision = self.scheduler.schedule_checked(context)
        return _PrecomputedAssigner(decision.assignment, dict(decision.info))

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        assigner = self.open(stream, rng)
        return [
            {
                "assignment": assigner.assignment[plan.start : plan.stop],
                "base": plan.start,
                "info": assigner.info(),
            }
            for plan in plans
        ]


#: Native streaming schedulers keyed by registry name.  ``repro.schedulers``
#: fills it from ``SCHEDULER_REGISTRY`` once every algorithm module is
#: loaded (the algorithm modules import this one, so it cannot list them).
STREAMING_SCHEDULERS: dict[str, type[StreamingScheduler]] = {}


def make_streaming_scheduler(name: str, **kwargs) -> StreamingScheduler:
    """Instantiate a native streaming scheduler by registry name."""
    try:
        cls = STREAMING_SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"no native streaming scheduler {name!r}; "
            f"available: {sorted(STREAMING_SCHEDULERS)} "
            "(others run through as_streaming()'s in-memory fallback)"
        ) from None
    return cls(**kwargs)


def as_streaming(scheduler: Scheduler) -> StreamingScheduler:
    """``scheduler`` itself if it streams natively, else its in-memory fallback.

    The four paper algorithms *are* streaming schedulers; anything else —
    the metaheuristics in particular — is wrapped in
    :class:`InMemoryFallback`, which materialises the workload before
    scheduling.
    """
    if isinstance(scheduler, StreamingScheduler):
        return scheduler
    return InMemoryFallback(scheduler)


__all__ = [
    "cyclic_take",
    "ChunkAssigner",
    "StreamingScheduler",
    "InMemoryFallback",
    "STREAMING_SCHEDULERS",
    "make_streaming_scheduler",
    "as_streaming",
]
