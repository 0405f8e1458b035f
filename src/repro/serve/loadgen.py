"""Deterministic open-loop load generator for the serving layer.

A :class:`TraceSpec` fully determines a :class:`LoadTrace`: request
arrival instants come from
:class:`~repro.workloads.timeline.TimelineArrivals` (the PR-6 exact
inversion sampler — here a constant-rate profile plus optional burst
batches) under the ``serve/arrivals`` RNG stream, and per-request batch
sizes and cloudlet lengths are drawn monolithically from
``serve/workload``.  Two processes building the same spec get the same
trace bit-for-bit, which is what makes the smoke's SLO gate and
differential check reproducible.

Replay is **open-loop**: request ``i`` is dispatched at its scheduled
instant regardless of whether earlier responses have arrived (up to a
connection cap that only bounds sockets, not the schedule), and latency
is measured from the *scheduled* instant to response completion — queue
wait counts against the service, so the percentiles are free of
coordinated omission.  ``time_scale=0`` collapses the schedule into a
max-throughput replay.

:func:`assert_bit_identical` closes the loop with the offline engine: it
reorders the responses by admission offset, rebuilds the submitted
columns in that order, and requires
:func:`~repro.serve.service.offline_assignments` to reproduce the
service's placements bit-for-bit at several chunk geometries.

Example::

    >>> from repro.serve.loadgen import TraceSpec, build_trace
    >>> trace = build_trace(TraceSpec(requests=3, rate=100.0, seed=7))
    >>> trace.num_requests, trace.num_cloudlets > 0
    (3, True)
    >>> again = build_trace(TraceSpec(requests=3, rate=100.0, seed=7))
    >>> again.lengths.tolist() == trace.lengths.tolist()
    True
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.serve.protocol import SubmissionBatch
from repro.serve.service import (
    FleetSpec,
    SchedulerService,
    concat_batches,
    offline_assignments,
)
from repro.workloads.streaming import DEFAULT_CHUNK_SIZE
from repro.workloads.timeline import TimelineArrivals


@dataclass(frozen=True)
class TraceSpec:
    """Seeded description of one load run (arrivals + workload shape)."""

    requests: int = 1_000
    #: mean request arrival rate, requests per second.
    rate: float = 500.0
    #: extra arrival batches: ``(instant_seconds, request_count)`` pairs.
    bursts: tuple = ()
    #: per-request batch size is uniform on [batch_low, batch_high].
    batch_low: int = 1
    batch_high: int = 32
    #: per-cloudlet length is uniform on [length_low, length_high).
    length_low: float = 500.0
    length_high: float = 2_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("requests", self.requests, ge=1, integer=True)
        check_number("rate", self.rate, gt=0)
        check_number("batch_low", self.batch_low, ge=1, integer=True)
        check_number("batch_high", self.batch_high, ge=self.batch_low, integer=True)
        check_number("length_low", self.length_low, gt=0)
        check_number("length_high", self.length_high, ge=self.length_low)
        check_number("seed", self.seed, ge=0, integer=True)


@dataclass(frozen=True)
class LoadTrace:
    """A materialised trace: schedule plus flat per-cloudlet columns."""

    spec: TraceSpec
    #: scheduled dispatch instant of each request, seconds from t=0.
    times: np.ndarray
    #: request ``i`` owns cloudlets ``[offsets[i], offsets[i+1])``.
    offsets: np.ndarray
    lengths: np.ndarray

    @property
    def num_requests(self) -> int:
        return int(self.times.shape[0])

    @property
    def num_cloudlets(self) -> int:
        return int(self.lengths.shape[0])

    def batch(self, i: int) -> SubmissionBatch:
        lengths = self.lengths[self.offsets[i]:self.offsets[i + 1]]
        k = lengths.shape[0]
        return SubmissionBatch(
            cloudlet_length=lengths,
            cloudlet_pes=np.ones(k, dtype=np.int64),
            cloudlet_file_size=np.zeros(k),
            cloudlet_output_size=np.zeros(k),
        )

    def body(self, i: int) -> bytes:
        lengths = self.lengths[self.offsets[i]:self.offsets[i + 1]]
        return json.dumps({"cloudlets": lengths.tolist()}).encode("utf-8")


def build_trace(spec: TraceSpec) -> LoadTrace:
    """Materialise the trace a :class:`TraceSpec` describes (deterministic)."""
    arrivals = TimelineArrivals(
        ((0.0, math.inf, spec.rate, 0.0),), tuple(spec.bursts)
    )
    times = arrivals.sample(spawn_rng(spec.seed, "serve/arrivals"), spec.requests)
    workload_rng = spawn_rng(spec.seed, "serve/workload")
    sizes = workload_rng.integers(
        spec.batch_low, spec.batch_high + 1, size=spec.requests
    )
    offsets = np.zeros(spec.requests + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    lengths = workload_rng.uniform(
        spec.length_low, spec.length_high, size=int(offsets[-1])
    )
    return LoadTrace(spec=spec, times=times, offsets=offsets, lengths=lengths)


@dataclass(frozen=True)
class SloSpec:
    """Latency/error/throughput gates evaluated against a :class:`LoadReport`."""

    p50_ms: "float | None" = None
    p99_ms: "float | None" = None
    max_error_rate: float = 0.0
    min_throughput_rps: "float | None" = None

    def violations(self, report: "LoadReport") -> list[str]:
        out = []
        if self.p50_ms is not None and report.p50_ms > self.p50_ms:
            out.append(f"p50 {report.p50_ms:.2f} ms > budget {self.p50_ms:g} ms")
        if self.p99_ms is not None and report.p99_ms > self.p99_ms:
            out.append(f"p99 {report.p99_ms:.2f} ms > budget {self.p99_ms:g} ms")
        if report.error_rate > self.max_error_rate:
            out.append(
                f"error rate {report.error_rate:.4f} > budget {self.max_error_rate:g}"
            )
        if (
            self.min_throughput_rps is not None
            and report.throughput_rps < self.min_throughput_rps
        ):
            out.append(
                f"throughput {report.throughput_rps:.0f} rps < "
                f"budget {self.min_throughput_rps:g} rps"
            )
        return out


@dataclass
class LoadReport:
    """Outcome of one replay, in request order."""

    #: scheduled-instant → response-completion latency per request, ms.
    latencies_ms: np.ndarray
    #: admission offset returned per request (-1 on error).
    offsets: np.ndarray
    #: placements per request (``None`` when ``collect=False``).
    placements: "list[np.ndarray] | None"
    errors: int
    elapsed_s: float
    cloudlets: int

    @property
    def requests(self) -> int:
        return int(self.latencies_ms.shape[0])

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def p50_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 50))

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 99))

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "cloudlets": self.cloudlets,
            "errors": self.errors,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.p50_ms,
            "latency_p99_ms": self.p99_ms,
            "latency_max_ms": float(self.latencies_ms.max()),
        }


async def _http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: bytes,
) -> tuple[int, Any]:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: loadgen\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        "\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = json.loads(await reader.readexactly(length)) if length else None
    return status, payload


async def _replay_async(
    trace: LoadTrace,
    fleet: str,
    host: str,
    port: int,
    time_scale: float,
    max_connections: int,
    collect: bool,
) -> LoadReport:
    n = trace.num_requests
    latencies = np.zeros(n)
    offsets = np.full(n, -1, dtype=np.int64)
    placements: "list[np.ndarray] | None" = [np.empty(0, np.int64)] * n if collect else None
    errors = 0
    pool: "asyncio.Queue" = asyncio.Queue()
    opened = 0
    loop = asyncio.get_running_loop()
    path = f"/v1/fleets/{fleet}/submit"
    t0 = loop.time()

    async def fire(i: int, scheduled: float) -> None:
        nonlocal errors, opened
        if pool.empty() and opened < max_connections:
            opened += 1
            conn = await asyncio.open_connection(host, port)
        else:
            conn = await pool.get()
        try:
            status, payload = await _http_request(
                *conn, "POST", path, trace.body(i)
            )
            latencies[i] = (loop.time() - t0 - scheduled) * 1e3
            if status == 200:
                offsets[i] = payload["offset"]
                if placements is not None:
                    placements[i] = np.asarray(payload["placements"], dtype=np.int64)
            else:
                errors += 1
        except (ConnectionError, asyncio.IncompleteReadError):
            latencies[i] = (loop.time() - t0 - scheduled) * 1e3
            errors += 1
            conn[1].close()
            opened -= 1
            return
        pool.put_nowait(conn)

    tasks = []
    for i in range(n):
        scheduled = float(trace.times[i]) * time_scale
        delay = t0 + scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(i, scheduled)))
    await asyncio.gather(*tasks)
    elapsed = loop.time() - t0
    while not pool.empty():
        _, writer = pool.get_nowait()
        writer.close()
    return LoadReport(
        latencies_ms=latencies,
        offsets=offsets,
        placements=placements,
        errors=errors,
        elapsed_s=elapsed,
        cloudlets=trace.num_cloudlets,
    )


def replay(
    trace: LoadTrace,
    fleet: str,
    host: str,
    port: int,
    time_scale: float = 1.0,
    max_connections: int = 16,
    collect: bool = True,
) -> LoadReport:
    """Replay a trace against a live server; returns the measured report."""
    check_number("time_scale", time_scale, ge=0)
    check_number("max_connections", max_connections, ge=1, integer=True)
    return asyncio.run(
        _replay_async(trace, fleet, host, port, time_scale, max_connections, collect)
    )


def replay_inprocess(
    trace: LoadTrace, service: SchedulerService, fleet: str
) -> LoadReport:
    """Sequential no-HTTP replay (differential tests, latency floor bench)."""
    n = trace.num_requests
    latencies = np.zeros(n)
    offsets = np.empty(n, dtype=np.int64)
    placements: list[np.ndarray] = []
    t0 = time.perf_counter()
    for i in range(n):
        start = time.perf_counter()
        placed = service.submit(fleet, trace.batch(i))
        latencies[i] = (time.perf_counter() - start) * 1e3
        offsets[i] = placed.offset
        placements.append(placed.placements)
        service.fleet(fleet).observe_latency(latencies[i] / 1e3)
    return LoadReport(
        latencies_ms=latencies,
        offsets=offsets,
        placements=placements,
        errors=0,
        elapsed_s=time.perf_counter() - t0,
        cloudlets=trace.num_cloudlets,
    )


def assert_bit_identical(
    fleet_spec: FleetSpec,
    trace: LoadTrace,
    report: LoadReport,
    chunk_sizes: tuple = (1_024, DEFAULT_CHUNK_SIZE),
) -> None:
    """Require the offline engine to reproduce the service's placements.

    Responses are reordered by admission offset (concurrent replays may
    admit requests out of dispatch order — the guarantee is stated against
    *admission* order), the submitted columns are rebuilt in that order,
    and :func:`~repro.serve.service.offline_assignments` must match the
    concatenated live placements bit-for-bit at every chunk geometry.
    """
    if report.placements is None:
        raise ValueError("replay ran with collect=False; placements unavailable")
    if report.errors:
        raise AssertionError(f"{report.errors} failed requests in the replay")
    order = np.argsort(report.offsets, kind="stable")
    admitted = concat_batches([trace.batch(int(i)) for i in order])
    live = np.concatenate([report.placements[int(i)] for i in order])
    expected_offsets = np.cumsum(
        [0] + [trace.batch(int(i)).size for i in order[:-1]]
    )
    if not np.array_equal(report.offsets[order], expected_offsets):
        raise AssertionError("admission offsets are not contiguous")
    for chunk_size in chunk_sizes:
        offline = offline_assignments(fleet_spec, admitted, chunk_size=chunk_size)
        if not np.array_equal(offline, live):
            first = int(np.flatnonzero(offline != live)[0])
            raise AssertionError(
                f"placements diverge from offline replay at cloudlet {first} "
                f"(chunk_size={chunk_size}): {live[first]} != {offline[first]}"
            )


__all__ = [
    "TraceSpec",
    "LoadTrace",
    "build_trace",
    "SloSpec",
    "LoadReport",
    "replay",
    "replay_inprocess",
    "assert_bit_identical",
]
