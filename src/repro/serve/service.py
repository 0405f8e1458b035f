"""Scheduling-as-a-service core: long-lived fleets answering live batches.

A :class:`SchedulerService` holds one :class:`Fleet` per configured
:class:`FleetSpec`.  Each fleet keeps an *open*
:class:`~repro.schedulers.streaming.ChunkAssigner` — the same object the
offline streaming engine drives — and feeds every accepted submission to
it as one chunk at the fleet's running cloudlet offset.  Because the
assigner carries its per-VM state across submissions exactly as it does
across chunks, the placements returned live are bit-identical to an
offline :class:`~repro.cloud.fast.StreamingSimulation` replay of the same
cloudlets in the same admission order (pinned by the differential suite
in ``tests/serve``; :func:`offline_assignments` is the reference side).

Only schedulers whose streaming form sets
:attr:`~repro.schedulers.streaming.StreamingScheduler.admits_online` are
servable — round-robin and greedy-MCT.  HBO orders cloudlet *groups* by
global descending length and RBS pre-draws its whole walk-length/start
sequence in one monolithic pass, so neither can decide a live batch
without the workload's future; requesting them is a 400, not a silent
approximation.

Example::

    >>> from repro.serve import FleetSpec, SchedulerService
    >>> service = SchedulerService()
    >>> fleet = service.add_fleet(
    ...     FleetSpec(name="edge", num_vms=4, scheduler="greedy-mct"))
    >>> placed = service.submit("edge", {"cloudlets": [1000.0, 500.0, 2000.0]})
    >>> placed.placements.tolist()
    [0, 1, 2]
    >>> service.submit("edge", {"cloudlets": [100.0]}).offset
    3
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.cloud.fast import StreamingSimulation, fold_exec_times
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.obs.manifest import RunManifest, capture_manifest
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.schedulers.streaming import (
    STREAMING_SCHEDULERS,
    make_streaming_scheduler,
)
from repro.serve.protocol import ServeError, SubmissionBatch, parse_submission
from repro.workloads.streaming import (
    DEFAULT_CHUNK_SIZE,
    ScenarioChunks,
    heterogeneous_stream,
    homogeneous_stream,
)

#: Streaming schedulers that can answer live submissions bit-identically
#: to the offline path (``admits_online`` on their streaming class).
SERVABLE_SCHEDULERS: tuple[str, ...] = tuple(
    sorted(
        name for name, cls in STREAMING_SCHEDULERS.items() if cls.admits_online
    )
)

#: family -> its stream builder, whose signature holds the family's
#: default datacenter count.
_FAMILIES = {"homogeneous": homogeneous_stream, "heterogeneous": heterogeneous_stream}

#: Latency observations kept per fleet for the percentile gauges.
_LATENCY_WINDOW = 4096

#: Export latency gauges every this many observations (plus on demand in
#: ``stats()``), keeping the per-request overhead O(1).
_GAUGE_EVERY = 256


@dataclass(frozen=True)
class FleetSpec:
    """Configuration of one served fleet.

    ``family`` selects the paper's homogeneous or heterogeneous fleet
    template (same VM/datacenter arrays as the offline scenarios, derived
    from ``seed``); ``scheduler`` must be one of
    :data:`SERVABLE_SCHEDULERS`.  ``num_datacenters=None`` takes the
    family's default, the one its stream builder's signature sets.
    """

    name: str
    num_vms: int = 100
    scheduler: str = "greedy-mct"
    family: str = "homogeneous"
    seed: int = 0
    num_datacenters: "int | None" = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ServeError(
                400, "bad-fleet", f"fleet name must be non-empty without '/': {self.name!r}"
            )
        if self.family not in _FAMILIES:
            raise ServeError(
                400, "bad-fleet", f"unknown family {self.family!r}; one of {tuple(_FAMILIES)}"
            )
        try:
            check_number("num_vms", self.num_vms, ge=1, integer=True)
            check_number(
                "num_datacenters", self._num_datacenters(), ge=1, le=self.num_vms, integer=True
            )
            check_number("seed", self.seed, ge=0, integer=True)
        except ValueError as exc:
            raise ServeError(400, "bad-fleet", str(exc)) from None
        if self.scheduler not in STREAMING_SCHEDULERS:
            raise ServeError(
                400,
                "unknown-scheduler",
                f"no streaming scheduler {self.scheduler!r}; "
                f"servable: {list(SERVABLE_SCHEDULERS)}",
            )
        if self.scheduler not in SERVABLE_SCHEDULERS:
            raise ServeError(
                400,
                "unservable-scheduler",
                f"{self.scheduler!r} cannot admit live batches (its first "
                "decision depends on the whole workload); servable: "
                f"{list(SERVABLE_SCHEDULERS)}",
            )

    def fleet_stream(self) -> ScenarioChunks:
        """The fleet template: resident VM/DC arrays plus one placeholder cloudlet.

        The placeholder is never scheduled — :meth:`Fleet.submit` and
        :func:`offline_assignments` both swap in real cloudlet columns via
        :meth:`~repro.workloads.streaming.ScenarioChunks.with_cloudlets`,
        which keeps the stream name (and therefore the derived
        ``scheduler/{name}`` RNG stream) identical on both sides.
        """
        template = _FAMILIES[self.family](
            self.num_vms, 1, self._num_datacenters(), seed=self.seed, name=f"serve-{self.name}"
        )
        # A materialised placeholder keeps live and offline replays on the
        # same scheduler code path: greedy's constant-workload cyclic fast
        # path triggers on ConstantCloudlets, which a live fleet can never
        # promise (the next submission may carry any lengths).
        return template.with_cloudlets(np.ones(1))

    def _num_datacenters(self) -> int:
        """``num_datacenters``, or else the family's default."""
        if self.num_datacenters is not None:
            return self.num_datacenters
        builder = inspect.signature(_FAMILIES[self.family])
        return builder.parameters["num_datacenters"].default

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "num_vms": self.num_vms,
            "scheduler": self.scheduler,
            "family": self.family,
            "seed": self.seed,
            "num_datacenters": self.num_datacenters,
        }


@dataclass(frozen=True)
class Placement:
    """One accepted submission: where each cloudlet went.

    ``offset`` is the fleet's cloudlet index of ``placements[0]`` — the
    admission-order position that makes the response comparable to an
    offline replay (sort responses by offset, concatenate, compare).
    """

    fleet: str
    offset: int
    placements: np.ndarray

    @property
    def size(self) -> int:
        return int(self.placements.shape[0])

    def to_payload(self) -> dict[str, Any]:
        return {
            "fleet": self.fleet,
            "offset": self.offset,
            "count": self.size,
            "placements": self.placements.tolist(),
        }


class LatencyWindow:
    """Sliding window of the last N latencies with on-demand percentiles."""

    def __init__(self, size: int = _LATENCY_WINDOW) -> None:
        self._values = np.zeros(size)
        self._count = 0

    def observe(self, seconds: float) -> None:
        self._values[self._count % self._values.shape[0]] = seconds
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def percentile_ms(self, q: float) -> float:
        filled = min(self._count, self._values.shape[0])
        if filled == 0:
            return 0.0
        return float(np.percentile(self._values[:filled], q)) * 1e3


class Fleet:
    """One served fleet: resident arrays, an open assigner, running totals."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.scheduler = make_streaming_scheduler(spec.scheduler)
        stream = spec.fleet_stream()
        self._stream = stream
        self.assigner = self.scheduler.open(
            stream, spawn_rng(spec.seed, f"scheduler/{stream.name}")
        )
        m = stream.num_vms
        self.offset = 0
        self.requests = 0
        self.backlog = np.zeros(m)
        self.counts = np.zeros(m, dtype=np.int64)
        self.latency = LatencyWindow()
        self.manifest: RunManifest = capture_manifest(
            scenario=stream,
            scheduler=self.scheduler,
            seed=spec.seed,
            engine="serve",
            fleet=spec.name,
            family=spec.family,
            servable=list(SERVABLE_SCHEDULERS),
        )

    def submit(self, batch: SubmissionBatch) -> Placement:
        stream = self._stream
        chunk = stream.chunk_arrays(
            cloudlet_length=batch.cloudlet_length,
            cloudlet_pes=batch.cloudlet_pes,
            cloudlet_file_size=batch.cloudlet_file_size,
            cloudlet_output_size=batch.cloudlet_output_size,
        )
        offset = self.offset
        with _TEL.span("serve.submit"):
            assignment = np.asarray(self.assigner.assign(chunk, offset))
        k = batch.size
        if assignment.shape != (k,) or not np.issubdtype(assignment.dtype, np.integer):
            raise RuntimeError(
                f"assigner returned shape {assignment.shape} dtype "
                f"{assignment.dtype} for a batch of {k}"
            )
        if k and (assignment.min() < 0 or assignment.max() >= stream.num_vms):
            raise RuntimeError("assigner placed a cloudlet outside the fleet")
        # The streaming engine's fold, so the fleet's running backlog
        # matches an offline replay bit-for-bit.
        fold_exec_times(self.backlog, assignment, batch.cloudlet_length, stream.vm_mips)
        np.add.at(self.counts, assignment, 1)
        self.offset += k
        self.requests += 1
        if _TEL.enabled:
            _TEL.count("serve.requests")
            _TEL.count("serve.batch_size", k)
        return Placement(fleet=self.spec.name, offset=offset, placements=assignment)

    def observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)
        if _TEL.enabled and self.latency.count % _GAUGE_EVERY == 0:
            self._export_gauges()

    def _export_gauges(self) -> None:
        _TEL.gauge(f"serve.{self.spec.name}.latency_p50_ms", self.latency.percentile_ms(50))
        _TEL.gauge(f"serve.{self.spec.name}.latency_p99_ms", self.latency.percentile_ms(99))

    def describe(self) -> dict[str, Any]:
        stats = self.stats()
        stats["manifest"] = self.manifest.to_dict()
        return stats

    def stats(self) -> dict[str, Any]:
        if _TEL.enabled and self.latency.count:
            self._export_gauges()
        info = self.assigner.info()
        return {
            **self.spec.to_dict(),
            "fingerprint": self.manifest.fingerprint(),
            "requests": self.requests,
            "cloudlets": self.offset,
            "latency_p50_ms": self.latency.percentile_ms(50),
            "latency_p99_ms": self.latency.percentile_ms(99),
            "backlog_max_s": float(self.backlog.max()),
            "backlog_mean_s": float(self.backlog.mean()),
            **({"estimated_makespan": info["estimated_makespan"]} if "estimated_makespan" in info else {}),
        }


class SchedulerService:
    """Fleet registry plus the submission entry point the HTTP layer calls.

    Thread-safe: a single lock serialises submissions, which *defines* the
    admission order that the determinism guarantee is stated against.
    """

    def __init__(self) -> None:
        self._fleets: dict[str, Fleet] = {}
        self._lock = threading.Lock()

    def add_fleet(self, spec: FleetSpec) -> Fleet:
        with self._lock:
            if spec.name in self._fleets:
                raise ServeError(409, "duplicate-fleet", f"fleet {spec.name!r} exists")
            fleet = Fleet(spec)
            self._fleets[spec.name] = fleet
            return fleet

    def fleet(self, name: str) -> Fleet:
        try:
            return self._fleets[name]
        except KeyError:
            raise ServeError(
                404, "unknown-fleet",
                f"no fleet {name!r}; configured: {sorted(self._fleets)}",
            ) from None

    @property
    def fleet_names(self) -> list[str]:
        return sorted(self._fleets)

    def submit(
        self, fleet_name: str, payload: "SubmissionBatch | Mapping[str, Any]"
    ) -> Placement:
        batch = (
            payload
            if isinstance(payload, SubmissionBatch)
            else parse_submission(payload)
        )
        with self._lock:
            return self.fleet(fleet_name).submit(batch)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "fleets": [self._fleets[name].stats() for name in sorted(self._fleets)]
            }


def concat_batches(batches: "list[SubmissionBatch]") -> SubmissionBatch:
    """Merge per-request batches into one column set, preserving order."""
    if not batches:
        raise ValueError("need at least one batch")
    return SubmissionBatch(
        cloudlet_length=np.concatenate([b.cloudlet_length for b in batches]),
        cloudlet_pes=np.concatenate([b.cloudlet_pes for b in batches]),
        cloudlet_file_size=np.concatenate([b.cloudlet_file_size for b in batches]),
        cloudlet_output_size=np.concatenate([b.cloudlet_output_size for b in batches]),
    )


def offline_assignments(
    spec: FleetSpec,
    batch: SubmissionBatch,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    shards: "int | None" = None,
) -> np.ndarray:
    """The offline streaming engine's placements for these cloudlets.

    Builds the same fleet from the same seed, binds the submitted columns
    in admission order, and runs
    :class:`~repro.cloud.fast.StreamingSimulation` in collect mode.  The
    differential suite asserts the returned assignment is bit-identical
    to the live service's concatenated placements, for any ``chunk_size``
    and shard count.
    """
    stream = spec.fleet_stream().with_cloudlets(
        batch.cloudlet_length,
        cloudlet_pes=batch.cloudlet_pes,
        cloudlet_file_size=batch.cloudlet_file_size,
        cloudlet_output_size=batch.cloudlet_output_size,
        chunk_size=chunk_size,
    )
    result = StreamingSimulation(
        stream,
        make_streaming_scheduler(spec.scheduler),
        seed=spec.seed,
        collect=True,
        shards=shards,
        shard_parallel=False,
    ).run()
    return result.assignment


__all__ = [
    "SERVABLE_SCHEDULERS",
    "FleetSpec",
    "Placement",
    "LatencyWindow",
    "Fleet",
    "SchedulerService",
    "concat_batches",
    "offline_assignments",
]
