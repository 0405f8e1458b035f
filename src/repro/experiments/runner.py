"""Sweep execution.

:func:`run_sweep` evaluates a set of schedulers over a range of VM counts
and seeds, returning flat :class:`SweepRecord` rows that the figure layer
aggregates.  The engine is selectable: the DES kernel (default, used for
the heterogeneous experiments) or the analytic fast path (used for the
paper's very large homogeneous sweeps).

Sweeps parallelise over (num_vms, seed) *cells*: every cell builds its
scenario from ``scenario_factory(num_vms, num_cloudlets, seed)`` and seeds
each simulation with the cell's own sweep seed, so a cell's records depend
only on its arguments — never on execution order.  ``workers=N`` therefore
returns rows bit-identical to the serial path (modulo the wall-clock
``scheduling_time`` field).  Worker processes use the ``spawn`` start
method, which requires the factories to be picklable — module-level
functions or dataclass instances, not lambdas or closures.

Both :func:`run_point` and :func:`run_sweep` accept ``cache=`` — a
:class:`repro.cache.ResultCache` (or just a directory path) — for
incremental re-runs: each (scheduler, cell) is keyed by its manifest
fingerprint, hits replay the cold run's result bit-identically (including
its recorded wall-clock ``scheduling_time``), and only the missing cells
compute.  A sweep resolves hits in the calling process, serial and pooled
alike, and computes each cell's misses through one :func:`_run_cell`;
a warm sweep therefore ships nothing to the pool, and a partially warm
sweep ships only the missing (scheduler, cell) pairs.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Literal

from repro.cache import ResultCache, cache_key_manifest
from repro.cloud.fast import FastSimulation, StreamingResult, StreamingSimulation
from repro.cloud.simulation import CloudSimulation, SimulationResult
from repro.obs.telemetry import TELEMETRY, TelemetrySnapshot
from repro.schedulers import Scheduler
from repro.workloads.spec import ScenarioSpec

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest

Engine = Literal["des", "fast", "stream"]
ScenarioFactory = Callable[[int, int, int], ScenarioSpec]
"""(num_vms, num_cloudlets, seed) -> scenario (a ScenarioSpec, or a
ScenarioChunks when the factory is a chunked family)"""


def _engine_scenario(scenario, engine: "Engine", chunk_size: int | None):
    """The form of ``scenario`` that ``engine`` runs (and keys the cache on).

    The streaming engine takes a
    :class:`~repro.workloads.streaming.ScenarioChunks`: a stream passes
    through (re-chunked if ``chunk_size`` disagrees), and a materialised
    :class:`~repro.workloads.spec.ScenarioSpec` is wrapped — its columns
    already exist in memory, so wrapping costs nothing extra and small
    differential tests can stream the exact same workload.  The other
    engines take a spec, so a stream is materialised for them.
    """
    if engine != "stream":
        return scenario.to_spec() if hasattr(scenario, "to_spec") else scenario
    from repro.workloads.streaming import DEFAULT_CHUNK_SIZE, ScenarioChunks

    if not isinstance(scenario, ScenarioChunks):
        return ScenarioChunks.from_spec(
            scenario, chunk_size=chunk_size or DEFAULT_CHUNK_SIZE
        )
    if chunk_size is not None and scenario.chunk_size != chunk_size:
        return scenario.with_chunk_size(chunk_size)
    return scenario


@dataclass(frozen=True)
class SweepRecord:
    """One (scheduler, scale, seed) measurement."""

    scheduler: str
    num_vms: int
    num_cloudlets: int
    seed: int
    scheduling_time: float
    makespan: float
    time_imbalance: float
    total_cost: float
    events_processed: int

    @classmethod
    def from_result(
        cls,
        result: "SimulationResult | StreamingResult",
        num_vms: int,
        num_cloudlets: int,
        seed: int,
    ) -> "SweepRecord":
        return cls(
            scheduler=result.scheduler_name,
            num_vms=num_vms,
            num_cloudlets=num_cloudlets,
            seed=seed,
            scheduling_time=result.scheduling_time,
            makespan=result.makespan,
            time_imbalance=result.time_imbalance,
            total_cost=result.total_cost,
            events_processed=result.events_processed,
        )

    def metric(self, name: str) -> float:
        """Look up a metric by its figure key."""
        try:
            return float(getattr(self, name))
        except AttributeError:
            raise ValueError(f"unknown metric {name!r}") from None


def run_point(
    scenario: ScenarioSpec,
    scheduler: Scheduler,
    seed: int,
    engine: Engine = "des",
    cache: "ResultCache | str | None" = None,
    chunk_size: int | None = None,
    shards: int | None = None,
) -> "SimulationResult | StreamingResult":
    """Execute one (scenario, scheduler) cell on the chosen engine.

    With ``cache`` (a :class:`repro.cache.ResultCache` or a directory
    path), the cell is first looked up by its manifest fingerprint; a hit
    replays the stored result — bit-identical to a recomputation except
    that wall-clock fields carry the *cold* run's measured values — and a
    miss computes, stores, and returns.  The key is derived before the
    scheduler runs, so mutable scheduler state never leaks into it.

    ``engine="stream"`` runs the memory-bounded
    :class:`~repro.cloud.fast.StreamingSimulation` and returns a
    :class:`~repro.cloud.fast.StreamingResult` (per-VM aggregates, no
    per-cloudlet arrays).  ``scenario`` may then be a
    :class:`~repro.workloads.streaming.ScenarioChunks` (the paper-scale
    path — nothing is ever materialised) or a plain spec (wrapped);
    ``chunk_size`` overrides the stream's chunking and, like the chunk
    count, participates in the cache key.  Other engines ignore
    ``chunk_size`` and materialise a chunked scenario via ``to_spec()``.

    ``shards=N`` (streaming engine only; other engines reject it) splits
    the stream into at most ``N`` chunk-aligned shards executed
    data-parallel and merged exactly (see
    :class:`~repro.cloud.fast.StreamingSimulation`).  The shard count is
    deliberately *not* part of the cache key — outputs are
    shard-count-invariant, so a warm entry written by a serial run
    satisfies a ``shards=N`` request and vice versa.
    """
    scenario = _engine_scenario(scenario, engine, chunk_size)
    if shards is not None and engine != "stream":
        raise ValueError(f"shards= requires engine='stream', got engine={engine!r}")
    cache = ResultCache.coerce(cache)
    key = manifest = None
    if cache is not None:
        manifest = cache_key_manifest(scenario, scheduler, seed, engine)
        key = manifest.fingerprint()
        cached = cache.get(key)
        if cached is not None:
            return cached
    if engine == "des":
        result = CloudSimulation(scenario, scheduler, seed=seed).run()
    elif engine == "fast":
        result = FastSimulation(scenario, scheduler, seed=seed).run()
    elif engine == "stream":
        result = StreamingSimulation(scenario, scheduler, seed=seed, shards=shards).run()
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if cache is not None:
        cache.put(key, result, manifest)
    return result


def _record(
    name: str,
    result: "SimulationResult | StreamingResult",
    num_vms: int,
    num_cloudlets: int,
    seed: int,
) -> SweepRecord:
    """The sweep row of scheduler ``name``'s result at one cell."""
    record = SweepRecord.from_result(result, num_vms, num_cloudlets, seed)
    if record.scheduler != name:
        raise RuntimeError(f"factory {name!r} produced scheduler {record.scheduler!r}")
    return record


def _run_cell(
    scenario,
    scheduler_factories: dict[str, Callable[[], Scheduler]],
    misses: "dict[str, RunManifest | None]",
    num_vms: int,
    num_cloudlets: int,
    seed: int,
    cache: "ResultCache | None",
    run_kwargs: dict,
) -> dict[str, SweepRecord]:
    """Compute one (num_vms, seed) cell's missing schedulers.

    ``misses`` maps each scheduler to compute onto its cache-key manifest
    (``None`` without a cache); every computed result is published under
    that key.  All schedulers share the cell's ``scenario``, so they
    compete on identical inputs and the records are a pure function of
    the arguments.
    """
    records: dict[str, SweepRecord] = {}
    for name, manifest in misses.items():
        result = run_point(scenario, scheduler_factories[name](), seed=seed, **run_kwargs)
        if manifest is not None:
            cache.put(manifest.fingerprint(), result, manifest)
        records[name] = _record(name, result, num_vms, num_cloudlets, seed)
    return records


def _cell_scenario(
    scenario_factory: ScenarioFactory,
    num_vms: int,
    num_cloudlets: int,
    seed: int,
    run_kwargs: dict,
):
    """One cell's scenario, in the form its engine runs."""
    return _engine_scenario(
        scenario_factory(num_vms, num_cloudlets, seed),
        run_kwargs["engine"], run_kwargs["chunk_size"],
    )


def _run_cell_task(
    scenario_factory: ScenarioFactory,
    scheduler_factories: dict[str, Callable[[], Scheduler]],
    misses: "dict[str, RunManifest | None]",
    num_vms: int,
    num_cloudlets: int,
    seed: int,
    cache: "ResultCache | None",
    run_kwargs: dict,
    with_telemetry: bool,
) -> "tuple[dict[str, SweepRecord], dict | None]":
    """Pool-worker entry: rebuild the cell's scenario, run :func:`_run_cell`.

    Concurrent workers publish to the shared cache safely (entry
    publication is an atomic rename).  Pool processes are reused across
    cells, so with telemetry the worker's registry is reset first and the
    returned snapshot is exactly this cell's contribution, which the
    parent folds into its own registry.  Telemetry never feeds back into
    a simulation, so pooled records stay bit-identical to serial ones.
    """
    if with_telemetry:
        TELEMETRY.reset()
        TELEMETRY.enable()
    scenario = _cell_scenario(scenario_factory, num_vms, num_cloudlets, seed, run_kwargs)
    records = _run_cell(
        scenario, scheduler_factories, misses, num_vms, num_cloudlets, seed,
        cache, run_kwargs,
    )
    return records, TELEMETRY.snapshot().to_dict() if with_telemetry else None


def run_sweep(
    scenario_factory: ScenarioFactory,
    scheduler_factories: dict[str, Callable[[], Scheduler]],
    vm_counts: Iterable[int],
    num_cloudlets: int,
    seeds: Iterable[int] = (0,),
    engine: Engine = "des",
    progress: Callable[[str], None] | None = None,
    workers: int | None = None,
    cache: "ResultCache | str | None" = None,
    chunk_size: int | None = None,
    shards: int | None = None,
) -> list[SweepRecord]:
    """Run the full (scheduler × vm_count × seed) grid.

    Parameters
    ----------
    scenario_factory:
        Builds the scenario for each (num_vms, num_cloudlets, seed) cell —
        the same scenario instance is shared by all schedulers at that cell
        so they compete on identical inputs.
    scheduler_factories:
        Name → zero-arg constructor; a fresh scheduler per cell keeps
        stateful policies honest.
    progress:
        Optional callback receiving a human-readable line per cell.  Always
        invoked in the calling process, in deterministic grid order.
    workers:
        ``None``, 0 or 1 runs the grid serially in-process.  ``N >= 2``
        fans the (num_vms, seed) cells out over ``N`` spawn-based worker
        processes; both factories must then be picklable (module-level
        callables or dataclass instances — not lambdas).  Records come
        back in the same grid order as the serial path and are
        bit-identical to it except for the wall-clock ``scheduling_time``.
    cache:
        Optional :class:`repro.cache.ResultCache` (or directory path).
        Granularity is per (scheduler, cell): extending ``vm_counts``,
        adding ``seeds`` or adding a scheduler to a previously swept grid
        computes only the missing cells, and a fully warm sweep replays
        byte-equal records (wall clock included — it is the cold run's).
        Hits are resolved in the calling process before a cell computes,
        serial and pooled alike; with ``workers`` only the missing
        (scheduler, cell) pairs are shipped to the spawn pool, and each
        worker publishes what it computed to the shared cache via atomic
        renames.
    chunk_size:
        Streaming chunk size, forwarded to the ``"stream"`` engine (other
        engines ignore it).  Streaming metrics are chunk-size-invariant,
        but the chunk geometry is part of the cache key.
    shards:
        Streaming shard count, forwarded to every cell's
        :func:`run_point` (streaming engine only).  Results are
        shard-count-invariant, so ``shards`` never enters the cache key.
        Combine with ``workers`` carefully: each sweep worker would spawn
        its own shard pool, oversubscribing small hosts.

    Determinism contract: each cell derives every random stream from its
    own ``seed`` argument (scenario synthesis and the per-simulation
    scheduler RNG alike), so cells are independent and neither the worker
    count nor the cache state can change a result — only how fast it
    arrives.
    """
    cache = ResultCache.coerce(cache)
    run_kwargs = dict(engine=engine, chunk_size=chunk_size, shards=shards)
    cells = [(num_vms, seed) for num_vms in vm_counts for seed in seeds]
    records: list[SweepRecord] = []

    def lookup(scenario, num_vms: int, seed: int):
        """One cell's cache hits (as records) and misses (as key manifests).

        Without a cache every scheduler misses and ``scenario`` is unused.
        """
        hits: dict[str, SweepRecord] = {}
        misses: "dict[str, RunManifest | None]" = {}
        for name, factory in scheduler_factories.items():
            manifest = None
            if cache is not None:
                manifest = cache_key_manifest(scenario, factory(), seed, engine)
                result = cache.get(manifest.fingerprint())
                if result is not None:
                    hits[name] = _record(name, result, num_vms, num_cloudlets, seed)
                    continue
            misses[name] = manifest
        return hits, misses

    def emit(cell: dict[str, SweepRecord]) -> None:
        for name in scheduler_factories:
            record = cell[name]
            records.append(record)
            if progress is not None:
                progress(
                    f"{record.scheduler:12s} vms={record.num_vms:<7d} "
                    f"seed={record.seed} "
                    f"makespan={record.makespan:10.2f} "
                    f"sched={record.scheduling_time * 1e3:9.2f}ms"
                )

    if workers is None or workers <= 1:
        for num_vms, seed in cells:
            scenario = _cell_scenario(
                scenario_factory, num_vms, num_cloudlets, seed, run_kwargs
            )
            hits, misses = lookup(scenario, num_vms, seed)
            computed = _run_cell(
                scenario, scheduler_factories, misses, num_vms, num_cloudlets,
                seed, cache, run_kwargs,
            )
            del scenario  # hold one cell's scenario at a time
            emit({**hits, **computed})
        return records

    # Spawn (not fork) so worker state is a clean import of the code under
    # test on every platform.  Hits are resolved here before dispatch, so a
    # warm sweep ships nothing; results are consumed in submission order to
    # keep the output indistinguishable from the serial path.
    with_telemetry = TELEMETRY.enabled
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx
    ) as pool:
        pending = []
        for num_vms, seed in cells:
            scenario = (
                _cell_scenario(scenario_factory, num_vms, num_cloudlets, seed, run_kwargs)
                if cache is not None
                else None
            )
            hits, misses = lookup(scenario, num_vms, seed)
            del scenario
            future = None
            if misses:
                future = pool.submit(
                    _run_cell_task, scenario_factory, scheduler_factories, misses,
                    num_vms, num_cloudlets, seed, cache, run_kwargs, with_telemetry,
                )
            pending.append((hits, future))
        for hits, future in pending:
            computed: dict[str, SweepRecord] = {}
            if future is not None:
                computed, snapshot = future.result()
                if snapshot is not None:
                    TELEMETRY.merge_snapshot(TelemetrySnapshot.from_dict(snapshot))
            emit({**hits, **computed})
    return records


__all__ = ["SweepRecord", "run_sweep", "run_point", "Engine", "ScenarioFactory"]
