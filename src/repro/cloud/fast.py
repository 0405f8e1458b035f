"""Analytic execution engines: the batch fast path and the streaming fold.

The paper's workloads submit every cloudlet at t=0 without network
delay, and the default execution model is space-shared FIFO.  Under
those conditions the DES outcome is a closed form: on a single-PE VM the
``k``-th assigned cloudlet starts when the ``k-1``-th finishes, so start
and finish times are per-VM prefix sums of execution times.

Both façades evaluate that closed form through one execution fold,
:func:`execute_shard`.  :class:`StreamingSimulation` runs it chunk by
chunk (and shard by shard) in O(num_vms + chunk_size) memory.
:class:`FastSimulation` is the degenerate call: the whole in-memory
scenario as one chunk, collected into per-cloudlet arrays, with the
scheduler's batch decision as the timed step — which makes the paper's
1 000 000-cloudlet homogeneous sweeps feasible in Python.  Both accept
single-PE fleets only; the DES engine
(:class:`~repro.cloud.simulation.CloudSimulation`) models multi-PE VMs.

The agreement between this path and the DES engine is enforced by
property-based tests (``tests/cloud/test_fast_vs_des.py``).
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cloud.simulation import (
    SimulationResult,
    cloudlet_costs,
    run_info,
    simulation_result,
)
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.obs.telemetry import TelemetrySnapshot
from repro.schedulers.base import Scheduler
from repro.workloads.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.streaming import StreamingScheduler
    from repro.workloads.streaming import ScenarioChunks, ShardPlan


def grouped_fifo_times(
    assignment: np.ndarray, exec_times: np.ndarray, num_vms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start/finish times of FIFO single-PE execution, all arrivals at t=0.

    Cloudlets are served per VM in submission (index) order; on each VM the
    finish times are the prefix sums of execution times.

    Returns ``(start_times, finish_times)`` aligned with the input order.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    exec_times = np.asarray(exec_times, dtype=float)
    if assignment.shape != exec_times.shape:
        raise ValueError("assignment and exec_times must be index-aligned")
    order = np.argsort(assignment, kind="stable")
    sorted_vm = assignment[order]
    sorted_exec = exec_times[order]
    csum = np.cumsum(sorted_exec)
    # Subtract each group's offset (cumsum value just before the group).
    group_start = np.flatnonzero(np.diff(sorted_vm, prepend=-1))
    offsets = np.zeros_like(csum)
    offsets[group_start[1:]] = csum[group_start[1:] - 1]
    offsets = np.maximum.accumulate(offsets)
    finish_sorted = csum - offsets
    start_sorted = finish_sorted - sorted_exec
    start = np.empty_like(start_sorted)
    finish = np.empty_like(finish_sorted)
    start[order] = start_sorted
    finish[order] = finish_sorted
    return start, finish


def _require_single_pe(stream: "ScenarioChunks") -> None:
    """The analytic engines' precondition: every VM has exactly one PE."""
    if not (stream.vm_pes == 1).all():
        raise ValueError(
            "FastSimulation and StreamingSimulation support single-PE fleets "
            "only (the paper's setting); run multi-PE VMs on CloudSimulation "
            "(engine='des'), which models PEs"
        )


class FastSimulation:
    """Drop-in replacement for :class:`~repro.cloud.simulation.CloudSimulation`
    restricted to the paper's conditions (space-shared, zero latency, batch
    arrival at t=0, single-PE VMs).

    One collect-mode :func:`execute_shard` pass over the scenario's
    columns as a single chunk.  The scheduler runs through
    :class:`~repro.schedulers.streaming.InMemoryFallback` — never its
    streaming form — so the timed step is its batch ``schedule_checked``
    decision, exactly what Figs. 5 and 6b measure.

    Parameters
    ----------
    scenario, scheduler, seed:
        As for :class:`~repro.cloud.simulation.CloudSimulation`.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        scheduler: Scheduler,
        seed: int | None = 0,
    ) -> None:
        self.scenario = scenario
        self.scheduler = scheduler
        self.seed = seed

    def run(self) -> SimulationResult:
        from repro.schedulers.streaming import InMemoryFallback
        from repro.workloads.streaming import ScenarioChunks, plan_shards

        scenario = self.scenario
        # A view over the spec's cached columns: no copies, one chunk.
        stream = ScenarioChunks._view(
            scenario.arrays(), name=scenario.name, seed=scenario.seed
        )
        _require_single_pe(stream)
        telemetry_before = _TEL.snapshot() if _TEL.enabled else None
        (plan,) = plan_shards(stream, 1)
        outcome = execute_shard(
            stream, InMemoryFallback(self.scheduler), self.seed, plan, collect=True
        )
        parts = outcome.collected
        info = run_info(
            "fast", scenario, self.scheduler, self.seed, telemetry_before,
            outcome.assigner_info,
        )
        return simulation_result(
            scenario.name, self.scheduler.name, outcome.scheduling_time,
            parts["assignment"], parts["start"], parts["finish"], parts["costs"],
            info,
        )


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes.

    Uses the stdlib ``resource`` module (``ru_maxrss`` is kilobytes on
    Linux, bytes on macOS) so the streaming path needs no extra
    dependencies to enforce its memory budget.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


@dataclass
class StreamingResult:
    """Outcome of one memory-bounded streaming execution.

    Carries the same scalar metric fields as
    :class:`~repro.cloud.simulation.SimulationResult` (so sweep records
    build from either), but per-VM aggregates instead of per-cloudlet
    arrays: the whole point of the streaming path is never holding O(n)
    result records.
    """

    scenario_name: str
    scheduler_name: str
    scheduling_time: float
    makespan: float
    time_imbalance: float
    total_cost: float
    num_cloudlets: int
    chunk_size: int
    num_chunks: int
    #: per-VM completion time (sum of its cloudlets' execution times).
    vm_finish_times: np.ndarray
    #: per-VM summed processing cost.
    vm_costs: np.ndarray
    #: process high-water RSS observed right after the run, in bytes.
    peak_rss_bytes: int = 0
    events_processed: int = 0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def num_vms(self) -> int:
        return int(self.vm_finish_times.shape[0])

    def summary(self) -> dict[str, float]:
        """The paper's four metrics as a flat dict (for reports/CSV)."""
        return {
            "scheduling_time_s": self.scheduling_time,
            "makespan": self.makespan,
            "time_imbalance": self.time_imbalance,
            "total_cost": self.total_cost,
        }


def _repeated_add_fold(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Left fold of ``counts[i]`` float additions of ``values[i]``, per position.

    ``out[i] = fl((...((0 + v) + v)...) + v)`` with ``counts[i]`` addends —
    exactly the value the ``np.add.at`` fold leaves on a VM that receives
    the same constant every time (``0 + v == v`` exactly, and
    ``np.add.accumulate`` is a strict left fold).  Positions sharing a
    value share one accumulation, run only as far as the largest count
    among them, so it takes at most ``sum(counts)`` additions: never more
    than the fold it stands in for.
    """
    out = np.zeros(values.shape[0])
    active = np.flatnonzero(counts)
    if not active.size:
        return out
    unique, group = np.unique(values[active], return_inverse=True)
    order = np.argsort(group, kind="stable")
    groups = np.split(active[order], np.flatnonzero(np.diff(group[order])) + 1)
    for value, members in zip(unique, groups):
        reps = counts[members]
        out[members] = np.add.accumulate(np.full(int(reps.max()), value))[reps - 1]
    return out


def fold_exec_times(
    backlog: np.ndarray,
    assignment: np.ndarray,
    lengths: np.ndarray,
    vm_mips: np.ndarray,
) -> np.ndarray:
    """Add each cloudlet's execution time onto its VM's backlog, in place.

    Returns the per-cloudlet execution times ``lengths / vm_mips[vm]``
    (single-PE VMs).  ``np.add.at`` is unbuffered and strictly
    index-ordered, so the per-VM sums are identical however the cloudlets
    are split into chunks or served batches — the streaming engine and
    the serving layer both fold through here, which is what makes every
    bounded metric chunk-size-invariant and a live fleet's backlog equal
    to an offline replay bit-for-bit.
    """
    exec_times = lengths / vm_mips[assignment]
    np.add.at(backlog, assignment, exec_times)
    return exec_times


def _validate_chunk(assignment: np.ndarray, k: int, m: int, offset: int) -> None:
    arr = np.asarray(assignment)
    if arr.shape != (k,):
        raise ValueError(
            f"chunk at offset {offset}: assignment shape {arr.shape} != ({k},)"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"chunk at offset {offset}: assignment must be integral, "
            f"got dtype {arr.dtype}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= m):
        raise ValueError(
            f"chunk at offset {offset}: assignment values must be in [0, {m})"
        )


def _folds_from_counts(stream: "ScenarioChunks", collect: bool) -> bool:
    """Whether a run's per-VM accumulators are rebuilt from assignment counts.

    On a :class:`~repro.workloads.streaming.ConstantCloudlets` stream every
    cloudlet a VM receives adds the same execution time and cost, so a
    bounded run needs only how many each VM got: :func:`execute_shard`
    counts instead of folding floats, and the merge rebuilds the
    ``np.add.at`` fold from the counts byte for byte (any chunk size, any
    shard count).  Collect mode and every other source fold per chunk.
    """
    from repro.workloads.streaming import ConstantCloudlets

    return not collect and isinstance(stream.cloudlets, ConstantCloudlets)


@dataclass
class ShardOutcome:
    """Per-shard accumulators produced by :func:`execute_shard`.

    Everything a parent needs to merge shards exactly: the per-VM partial
    sums (or counts), the min/max execution-time envelope, and the
    worker-side telemetry values (``peak_rss_bytes``, chunk count) that
    must be aggregated max-wise / sum-wise rather than last-wins.  Collect
    mode folds only ``backlog`` (the merge's shift for later shards): its
    per-cloudlet arrays carry everything else, so ``vm_costs`` and the
    envelope keep their empty initial values.
    """

    shard_index: int
    num_chunks: int
    scheduling_time: float
    #: per-VM partial float folds; ``None`` when the run folds from counts
    #: (:func:`_folds_from_counts`), where the merge rebuilds them.
    backlog: "np.ndarray | None"
    vm_costs: "np.ndarray | None"
    #: per-VM assignment counts (int64), only when the run folds from
    #: counts; ``None`` otherwise.
    counts: "np.ndarray | None"
    exec_min: float
    exec_max: float
    peak_rss_bytes: int
    assigner_info: dict[str, Any]
    #: collect mode only: the per-chunk arrays joined (a one-chunk shard's
    #: own arrays), shard-local times.
    collected: "dict[str, np.ndarray] | None" = None


def execute_shard(
    stream: "ScenarioChunks",
    scheduler: "StreamingScheduler",
    seed: int | None,
    plan: "ShardPlan",
    carry: "dict[str, Any] | None" = None,
    collect: bool = False,
) -> ShardOutcome:
    """Run one shard's chunks through the execution fold.

    This is the execute layer of the plan → execute → merge split: the
    chunk loop :class:`StreamingSimulation` always ran, parameterised by a
    chunk range and a carried-in assigner state.  The serial path is the
    degenerate call (whole-stream plan, no carry), so ``shards=1`` is the
    historical behaviour by construction.  Collect-mode start/finish
    times are shard-local; the merger shifts them by the per-VM backlog
    prefix of earlier shards.

    A bounded run of a constant stream (:func:`_folds_from_counts`) only
    counts each VM's cloudlets and returns ``backlog``/``vm_costs`` as
    ``None``; the merge rebuilds them, and the envelope, from the counts.
    Every other bounded run folds execution times and costs per chunk
    and returns ``counts`` as ``None``.
    """
    m = stream.num_vms
    counted = _folds_from_counts(stream, collect)
    rng = spawn_rng(seed, f"scheduler/{stream.name}")

    t0 = time.perf_counter()
    with _TEL.span("sim.schedule"):
        if carry is None:
            assigner = scheduler.open(stream, rng)
        else:
            assigner = scheduler.open(stream, rng, carry)
    scheduling_time = time.perf_counter() - t0

    backlog = np.zeros(m)
    vm_costs = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    exec_min, exec_max = np.inf, -np.inf
    num_chunks = 0
    parts: dict[str, list[np.ndarray]] = (
        {k: [] for k in ("assignment", "start", "finish", "costs")}
        if collect
        else {}
    )

    for offset, chunk in stream.iter_range(plan.chunk_start, plan.chunk_stop):
        num_chunks += 1
        t0 = time.perf_counter()
        with _TEL.span("sim.schedule"):
            assignment = assigner.assign(chunk, offset)
        scheduling_time += time.perf_counter() - t0
        _validate_chunk(assignment, chunk.num_cloudlets, m, offset)

        with _TEL.span("sim.execute"):
            if counted:
                counts += np.bincount(assignment, minlength=m)
                continue
            # Each VM's backlog from previous chunks of this shard, read
            # before this chunk folds in (all zero on the first chunk).
            carried = backlog[assignment] if collect and num_chunks > 1 else None
            exec_chunk = fold_exec_times(
                backlog, assignment, chunk.cloudlet_length, chunk.vm_mips
            )
            if collect:
                # Chunk-local FIFO prefix sums, shifted by the carried backlog.
                # A collect result reads nothing else, so the cost fold and
                # envelope below are bounded-mode only.
                start, finish = grouped_fifo_times(assignment, exec_chunk, m)
                if carried is not None:
                    start += carried
                    finish += carried
                parts["assignment"].append(np.asarray(assignment, dtype=np.int64))
                parts["start"].append(start)
                parts["finish"].append(finish)
                parts["costs"].append(cloudlet_costs(chunk, assignment))
                continue
            np.add.at(vm_costs, assignment, cloudlet_costs(chunk, assignment))
            exec_min = min(exec_min, float(exec_chunk.min()))
            exec_max = max(exec_max, float(exec_chunk.max()))

    return ShardOutcome(
        shard_index=plan.index,
        num_chunks=num_chunks,
        scheduling_time=scheduling_time,
        backlog=None if counted else backlog,
        vm_costs=None if counted else vm_costs,
        counts=counts if counted else None,
        exec_min=exec_min,
        exec_max=exec_max,
        peak_rss_bytes=peak_rss_bytes(),
        assigner_info=assigner.info(),
        collected=(
            {
                name: chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                for name, chunks in parts.items()
            }
            if collect
            else None
        ),
    )


def _execute_shard_task(payload: tuple) -> "tuple[ShardOutcome, dict | None]":
    """Pool-worker wrapper: run one shard, ship its telemetry snapshot.

    Workers never set ``stream.*`` gauges — gauge merging is last-wins,
    so a worker-side gauge would clobber the parent's aggregate view.
    Instead the chunk count and peak RSS travel in the
    :class:`ShardOutcome` and the parent publishes them once.
    """
    stream, scheduler, seed, plan, carry, collect, with_telemetry = payload
    _TEL.reset()
    if with_telemetry:
        _TEL.enable()
    else:
        _TEL.disable()
    outcome = execute_shard(stream, scheduler, seed, plan, carry, collect)
    snap = _TEL.snapshot().to_dict() if with_telemetry else None
    return outcome, snap


_SHARD_POOL: "ProcessPoolExecutor | None" = None
_SHARD_POOL_SIZE = 0


def _shard_pool(workers: int) -> ProcessPoolExecutor:
    """Persistent spawn pool shared by all sharded runs in this process.

    A spawn-based worker takes ~0.4 s to boot and import the engine;
    reusing one pool across the points of a sweep amortises that to once
    per process.  The pool grows (is recreated) when a run asks for more
    workers than it has.
    """
    global _SHARD_POOL, _SHARD_POOL_SIZE
    if _SHARD_POOL is None or _SHARD_POOL_SIZE < workers:
        if _SHARD_POOL is not None:
            _SHARD_POOL.shutdown()
        _SHARD_POOL = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )
        _SHARD_POOL_SIZE = workers
    return _SHARD_POOL


def shutdown_shard_pool() -> None:
    """Tear down the persistent shard pool (tests and long-lived hosts)."""
    global _SHARD_POOL, _SHARD_POOL_SIZE
    if _SHARD_POOL is not None:
        _SHARD_POOL.shutdown()
        _SHARD_POOL = None
        _SHARD_POOL_SIZE = 0


def _pool_results(payloads: list[tuple]) -> "list[tuple[ShardOutcome, dict | None]]":
    """Every payload's ``_execute_shard_task`` result, in payload order."""
    pool = _shard_pool(len(payloads))
    try:
        futures = [pool.submit(_execute_shard_task, payload) for payload in payloads]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        shutdown_shard_pool()
        raise


def _run_shard_tasks(payloads: list[tuple]) -> "list[tuple[ShardOutcome, dict | None]]":
    """Run one sharded run's payloads on the persistent pool.

    A pool worker lost since the last run, or during this one, breaks the
    executor for good.  Shards are pure functions of their payloads, so
    the broken pool is dropped, rebuilt once and this run's shards rerun
    on it (counted in ``stream.pool_rebuilds``); a second break raises.
    Only the attempt that completes is returned, so worker telemetry is
    merged once.
    """
    try:
        return _pool_results(payloads)
    except BrokenProcessPool:
        _TEL.count("stream.pool_rebuilds")
        return _pool_results(payloads)


class StreamingSimulation:
    """Memory-bounded analytic execution over a chunked scenario.

    Folds each cloudlet chunk into running per-VM accumulators instead of
    per-cloudlet record arrays, so a paper-scale point (10^6 cloudlets)
    peaks at O(num_vms + chunk_size) memory.  Restricted to single-PE
    fleets (the paper's setting) — the closed form per VM is then a plain
    running sum.

    The run is structured plan → execute → merge: a shard planner splits
    the chunk range (:func:`~repro.workloads.streaming.plan_shards`), the
    scheduler provides carried-in state per shard boundary
    (:meth:`~repro.schedulers.streaming.StreamingScheduler.plan_carries`),
    each shard folds its chunks independently (:func:`execute_shard` —
    in spawn-pool workers, or inline with ``shard_parallel=False``), and
    the parent merges the per-VM partial sums (or counts).  ``shards=None``
    or ``1`` runs the single degenerate shard in-process: the historical
    serial path.

    Determinism contract: the execution fold accumulates with
    ``np.add.at`` (unbuffered, strictly index-ordered), so every bounded
    metric is bit-for-bit identical for *any* chunk size.  A bounded run
    of a constant stream (the homogeneous family) folds from per-VM
    assignment counts at every shard count, serial included: the merge
    rebuilds exactly that ``np.add.at`` fold from them, so its metrics
    and accumulators are bit-identical at any chunk size and any shard
    count, on any fleet.  Collect mode
    is byte-equal to :class:`FastSimulation` whenever the per-cloudlet
    execution times are exactly representable (the homogeneous tables,
    dyadic fleets).  Bounded-mode scalars additionally match the
    in-memory values exactly on *fully dyadic* workloads (power-of-two
    MIPS, integer lengths, dyadic cost constants); elsewhere
    ``total_cost`` can differ from the in-memory pairwise sum by
    float reassociation ulps (see docs/performance.md, "When streaming
    is bit-safe").  Sharding keeps assignments bit-identical for every
    shard count unconditionally; on other sources the merged accumulator
    metrics are bit-identical on the same exactly-representable domains
    where chunking is (shard merging reassociates the same sums).

    Parameters
    ----------
    stream:
        A :class:`~repro.workloads.streaming.ScenarioChunks`.
    scheduler:
        A :class:`~repro.schedulers.streaming.StreamingScheduler`, or any
        in-memory :class:`~repro.schedulers.base.Scheduler` (adapted via
        :func:`~repro.schedulers.streaming.as_streaming`; metaheuristics
        then fall back to materialising the workload).
    seed:
        Scheduler RNG seed; the stream is derived with the same
        ``scheduler/{name}`` label the in-memory façades use, so
        streaming and monolithic runs see identical random streams.
    collect:
        ``False`` (default) returns a :class:`StreamingResult` of bounded
        accumulators.  ``True`` additionally concatenates per-chunk
        start/finish/cost arrays and returns a full
        :class:`~repro.cloud.simulation.SimulationResult` — O(n) memory,
        used by the differential tests.
    shards:
        ``None`` or ``1``: serial.  ``N >= 2``: split into at most ``N``
        chunk-aligned shards executed data-parallel and merged exactly.
    shard_parallel:
        ``True`` (default) executes shards in the persistent spawn pool;
        ``False`` runs the same shard math sequentially in-process —
        identical results, no processes (tests, profiling).
    """

    def __init__(
        self,
        stream: "ScenarioChunks",
        scheduler: "Scheduler | StreamingScheduler",
        seed: int | None = 0,
        collect: bool = False,
        shards: int | None = None,
        shard_parallel: bool = True,
    ) -> None:
        from repro.schedulers.streaming import as_streaming

        if shards is not None:
            check_number("shards", shards, ge=1, integer=True)
        self.stream = stream
        self.scheduler = as_streaming(scheduler)
        self.seed = seed
        self.collect = collect
        self.shards = shards
        self.shard_parallel = shard_parallel

    def run(self) -> "SimulationResult | StreamingResult":
        from repro.workloads.streaming import ShardPlan, plan_shards

        stream = self.stream
        n = stream.num_cloudlets
        _require_single_pe(stream)

        telemetry_before = _TEL.snapshot() if _TEL.enabled else None

        # -- plan ------------------------------------------------------------
        shards = self.shards if self.shards is not None else 1
        plan_time = 0.0
        if shards <= 1:
            plans: "tuple[ShardPlan, ...]" = (
                ShardPlan(
                    index=0, num_shards=1, chunk_start=0,
                    chunk_stop=stream.num_chunks, start=0, stop=n,
                ),
            )
            carries: "list[dict[str, Any] | None]" = [None]
        else:
            rng = spawn_rng(self.seed, f"scheduler/{stream.name}")
            t0 = time.perf_counter()
            with _TEL.span("sim.schedule"):
                plans = plan_shards(stream, shards)
                carries = self.scheduler.plan_carries(stream, rng, plans)
            plan_time = time.perf_counter() - t0
            if len(carries) != len(plans):
                raise RuntimeError(
                    f"{type(self.scheduler).__name__}.plan_carries returned "
                    f"{len(carries)} carries for {len(plans)} plans"
                )

        # -- execute ---------------------------------------------------------
        outcomes: list[ShardOutcome] = []
        if len(plans) > 1 and self.shard_parallel:
            with_telemetry = _TEL.enabled
            for outcome, snap in _run_shard_tasks([
                (stream, self.scheduler, self.seed, plan, carry,
                 self.collect, with_telemetry)
                for plan, carry in zip(plans, carries)
            ]):
                if snap is not None:
                    _TEL.merge_snapshot(TelemetrySnapshot.from_dict(snap))
                outcomes.append(outcome)
        else:
            for plan, carry in zip(plans, carries):
                outcomes.append(
                    execute_shard(
                        stream, self.scheduler, self.seed, plan, carry, self.collect
                    )
                )

        # -- merge -----------------------------------------------------------
        return self._merge(stream, plans, outcomes, plan_time, telemetry_before)

    def _merge(
        self,
        stream: "ScenarioChunks",
        plans,
        outcomes: list[ShardOutcome],
        plan_time: float,
        telemetry_before,
    ) -> "SimulationResult | StreamingResult":
        m = stream.num_vms
        n = stream.num_cloudlets
        counted = _folds_from_counts(stream, self.collect)

        backlog = np.zeros(m)
        vm_costs = np.zeros(m)
        counts = np.zeros(m, dtype=np.int64)
        exec_min, exec_max = np.inf, -np.inf
        num_chunks = 0
        scheduling_time = plan_time
        collected: dict[str, list[np.ndarray]] = (
            {k: [] for k in ("assignment", "start", "finish", "costs")}
            if self.collect
            else {}
        )

        for outcome in outcomes:
            if self.collect:
                parts = outcome.collected
                assignment = parts["assignment"]
                if outcome.shard_index == 0:
                    # No earlier shards: the local times are absolute, and
                    # skipping the += keeps the serial path byte-identical.
                    start, finish = parts["start"], parts["finish"]
                else:
                    shift = backlog[assignment]
                    start = parts["start"] + shift
                    finish = parts["finish"] + shift
                collected["assignment"].append(assignment)
                collected["start"].append(start)
                collected["finish"].append(finish)
                collected["costs"].append(parts["costs"])
            if counted:
                counts += outcome.counts
            else:
                backlog += outcome.backlog
                vm_costs += outcome.vm_costs
                exec_min = min(exec_min, outcome.exec_min)
                exec_max = max(exec_max, outcome.exec_max)
            num_chunks += outcome.num_chunks
            scheduling_time += outcome.scheduling_time

        if counted:
            # Each VM's fold adds one per-VM constant per cloudlet, so the
            # exactly merged counts rebuild it byte for byte at any shard
            # count (summing float partials would reassociate at each shard
            # boundary).  The constants: one cloudlet per VM, priced like
            # any chunk.  Every assigned execution time is exactly
            # length / vm_mips[v], so the envelope is the constants' on the
            # occupied VMs: the identical IEEE divisions.
            one_each = stream.chunk_arrays(**stream.cloudlets.open_pass(stream.seed)(m))
            exec_const = one_each.cloudlet_length / stream.vm_mips
            backlog = _repeated_add_fold(exec_const, counts)
            vm_costs = _repeated_add_fold(cloudlet_costs(one_each, np.arange(m)), counts)
            occupied = exec_const[counts > 0]
            exec_min, exec_max = float(occupied.min()), float(occupied.max())

        # Telemetry values that must aggregate max-wise across workers:
        # a parent-side ru_maxrss read alone would silently under-report
        # the budget when the fold ran in pool processes.
        peak_rss = max(
            peak_rss_bytes(), *(outcome.peak_rss_bytes for outcome in outcomes)
        )
        if _TEL.enabled:
            _TEL.gauge("stream.chunks", num_chunks)
            _TEL.gauge("stream.peak_rss", peak_rss)

        info = run_info(
            "stream", stream, self.scheduler, self.seed, telemetry_before,
            {
                "chunk_size": stream.chunk_size,
                "num_chunks": num_chunks,
                "shards": len(plans),
                "streaming_native": self.scheduler.streaming_native,
                "peak_rss_bytes": peak_rss,
                **self.scheduler.merge_info(
                    [outcome.assigner_info for outcome in outcomes], n
                ),
            },
            chunk_size=stream.chunk_size,
            num_chunks=num_chunks,
        )

        if self.collect:
            assignment, start, finish, costs = (
                np.concatenate(collected[k])
                for k in ("assignment", "start", "finish", "costs")
            )
            return simulation_result(
                stream.name, self.scheduler.name, scheduling_time,
                assignment, start, finish, costs, info,
            )

        # Bounded aggregates.  Every VM's first cloudlet starts at t=0, so
        # the makespan (max finish - min start) is just the largest backlog;
        # the imbalance mean is total execution time over n.
        mean_exec = float(backlog.sum()) / n
        return StreamingResult(
            scenario_name=stream.name,
            scheduler_name=self.scheduler.name,
            scheduling_time=scheduling_time,
            makespan=float(backlog.max()),
            time_imbalance=float((exec_max - exec_min) / mean_exec),
            total_cost=float(vm_costs.sum()),
            num_cloudlets=n,
            chunk_size=stream.chunk_size,
            num_chunks=num_chunks,
            vm_finish_times=backlog,
            vm_costs=vm_costs,
            peak_rss_bytes=peak_rss,
            events_processed=0,
            info=info,
        )

__all__ = [
    "FastSimulation",
    "ShardOutcome",
    "StreamingSimulation",
    "StreamingResult",
    "execute_shard",
    "fold_exec_times",
    "grouped_fifo_times",
    "peak_rss_bytes",
    "shutdown_shard_pool",
]
