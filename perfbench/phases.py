"""What one benchmark run does: set up, check pins, and run measured passes.

Every workload runs the same three phases on inputs of one family
(``homog``: the paper's homogeneous tables, constant cloudlets;
``hetero``: its heterogeneous ones, random lengths and VM speeds):

* **stream** -- four native streaming schedulers through
  :class:`~repro.cloud.fast.StreamingSimulation`, serially and with two
  pool shards (Fig. 4/5);
* **batch** -- ten batch schedulers through ``schedule_checked`` on the
  in-memory scenario (Fig. 6b's scheduling time);
* **serve** -- the HTTP service in its own process, driven by a
  one-connection closed loop and by the repo's open-loop load generator.

A pass runs each phase once.  Outputs are checked on every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.fast import StreamingSimulation, shutdown_shard_pool
from repro.obs.telemetry import TELEMETRY
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulingContext
from repro.schedulers.streaming import make_streaming_scheduler
from repro.serve.loadgen import TraceSpec, assert_bit_identical, build_trace, replay
from repro.serve.service import FleetSpec
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.streaming import heterogeneous_stream, homogeneous_stream

from perfbench import tracing
from perfbench.server import HOST, ServerProcess, closed_loop

STREAM_SCHEDULERS = ("basetest", "greedy-mct", "honeybee", "rbs")
#: Table II's ant colony (50 ants) plus every optimizer-kernel scheduler.
BATCH_SCHEDULERS = (
    "antcolony", "honeybee", "rbs", "basetest", "pso",
    "ga", "gsa", "psogsa", "cuckoo-sos", "annealing",
)
SERVE_SCHEDULERS = ("basetest", "greedy-mct")
SHARDS = 2
#: A sixth of the closed loop's rate: at 1500 req/s a host running at
#: half speed saturated the server, and p50 rose from 1 ms to 17-40 ms.
OPEN_LOOP_RPS = 750.0
WORKLOADS = ("homog", "hetero")


@dataclass(frozen=True)
class Sizes:
    stream_vms: int
    stream_cloudlets: int
    stream_chunk: int
    batch_vms: int
    batch_cloudlets: int
    serve_vms: int
    closed_requests: int
    open_requests: int
    check_requests: int


#: Full sizes keep one pass near 1.5-2.5 s on a 2-core host, so a 40 s
#: run takes 15-25 samples of every timed item.
SIZES = {
    ("homog", "full"): Sizes(1000, 1_000_000, 65_536, 200, 2000, 500, 800, 150, 200),
    ("hetero", "full"): Sizes(1000, 32_768, 16_384, 200, 2000, 500, 800, 150, 200),
    ("homog", "tiny"): Sizes(50, 200_000, 65_536, 20, 200, 50, 40, 60, 20),
    ("hetero", "tiny"): Sizes(50, 20_000, 4096, 20, 200, 50, 40, 60, 20),
}

#: Fixed inputs whose decisions are pinned in ``pins.json``; small, so
#: checking them costs little on every run whatever ``--seed`` says.
PIN_SEED = 2016
PIN_SIZES = {
    "homog": {"stream": (40, 300_000), "batch": (30, 300)},
    "hetero": {"stream": (40, 30_000), "batch": (30, 300)},
}
PIN_CHUNK = 4096


def decision_hash(*arrays: np.ndarray) -> str:
    """SHA-256 over decision arrays, integers as int64, floats as float64."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        dtype = np.int64 if np.issubdtype(array.dtype, np.integer) else np.float64
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def make_stream(workload: str, num_vms: int, num_cloudlets: int, seed: int, **kw):
    build = homogeneous_stream if workload == "homog" else heterogeneous_stream
    return build(num_vms, num_cloudlets, seed=seed, **kw)


def make_scenario(workload: str, num_vms: int, num_cloudlets: int, seed: int):
    build = homogeneous_scenario if workload == "homog" else heterogeneous_scenario
    scenario = build(num_vms, num_cloudlets, seed=seed)
    scenario.arrays()
    return scenario


def same_accumulators(workload: str, serial, sharded) -> bool:
    """Serial and sharded per-VM folds agree.

    Constant workloads merge bit-for-bit; random lengths reassociate the
    per-VM sums at the shard boundary, so they agree to rounding only.
    """
    pairs = (
        (serial.vm_finish_times, sharded.vm_finish_times),
        (serial.vm_costs, sharded.vm_costs),
    )
    if workload == "homog":
        return all(a.tobytes() == b.tobytes() for a, b in pairs)
    return all(np.allclose(a, b, rtol=1e-9, atol=0.0) for a, b in pairs)


@dataclass
class Ledger:
    """Checks and counts of one run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class PassResult:
    closed_requests: int = 0
    #: wall time of each timed item ("serial/rbs", "batch/ga", ...).
    items: dict = field(default_factory=dict)
    open_latencies_ms: list = field(default_factory=list)
    #: traced passes: how late each open-loop request went out, ms.
    lags_ms: list = field(default_factory=list)
    #: :func:`calibrate` timings taken before each timed item.
    calibration_s: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    shard_skews: list = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """How much slower than the reference the host ran this pass."""
        return float(np.median(self.calibration_s)) / CALIBRATION_REF_S

    def seconds(self, kind: str) -> float:
        """Summed wall time of the items of one kind (``"serial"``, ...)."""
        return sum(wall for key, wall in self.items.items() if key.startswith(kind + "/"))

    @property
    def wall_s(self) -> float:
        """Time spent in the pass's timed regions (open loop excluded:
        its wall is set by the arrival schedule, not by the program)."""
        return sum(self.items.values())

    def charge(self, layers: dict, wall: float) -> None:
        """Add one timed item's layers; what they miss of ``wall`` is unattributed."""
        layers["unattributed_s"] = (
            layers.get("unattributed_s", 0.0) + wall - sum(layers.values())
        )
        tracing.add_into(self.layers, layers)


def pin_values(workload: str, ledger: Ledger) -> dict:
    """Decisions on the pinned inputs (sharded agreement checked too)."""
    values = {}
    vms, n = PIN_SIZES[workload]["stream"]
    stream = make_stream(workload, vms, n, PIN_SEED, chunk_size=PIN_CHUNK)
    for name in STREAM_SCHEDULERS:
        serial = StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=PIN_SEED
        ).run()
        sharded = StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=PIN_SEED, shards=SHARDS
        ).run()
        ledger.check(
            same_accumulators(workload, serial, sharded),
            f"pin stream/{name}: sharded accumulators differ from serial",
        )
        values[f"stream/{name}"] = {
            "makespan": serial.makespan,
            "decision_sha256": decision_hash(serial.vm_finish_times, serial.vm_costs),
        }
    vms, n = PIN_SIZES[workload]["batch"]
    scenario = make_scenario(workload, vms, n, PIN_SEED)
    for name in BATCH_SCHEDULERS:
        result = make_scheduler(name).schedule_checked(
            SchedulingContext.from_scenario(scenario, PIN_SEED)
        )
        values[f"batch/{name}"] = {"decision_sha256": decision_hash(result.assignment)}
    return values


#: :func:`calibrate`'s time on the 2-core host the benchmark was tuned on.
CALIBRATION_REF_S = 0.0045
#: The CPUs the benchmark may use, as allowed at start.
CPUS = sorted(os.sched_getaffinity(0))


def _calibration_kernel() -> float:
    values = np.random.default_rng(0).random(65_536)
    t0 = time.perf_counter()
    for _ in range(4):
        np.sort(values)
        np.add.at(np.zeros(1000), (values * 999).astype(np.int64), values)
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean seconds, over the allowed CPUs, of a fixed numpy and bytecode mix.

    The work (about 5 ms per CPU) never touches ``repro``, so its time
    tracks only the host's speed.  On a shared host that speed swings by
    10-30 % within seconds and between minutes, for this code and the
    program alike, and each CPU swings on its own.  Timed items use both
    CPUs (the pool's workers, the server), and item times tracked the
    mean over CPUs about twice as well (R^2) as the calling CPU alone.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times.append(_calibration_kernel())
    finally:
        os.sched_setaffinity(0, allowed)
    return float(np.mean(times))


@contextlib.contextmanager
def pinned_to_first_cpu():
    """Keep the calling thread on the first allowed CPU meanwhile.

    The server process sits on the last one (:func:`server.server_main`),
    so client and server always talk across the same pair of CPUs; left
    to the kernel, their placement changes from run to run and so does
    every round trip.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _count_into(counters: dict, snap) -> None:
    for name, value in snap.counters.items():
        counters[name] = counters.get(name, 0) + value


class Harness:
    """One set-up: inputs built, shard pool warm, server listening."""

    def __init__(self, workload: str, scale: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.sizes = SIZES[(workload, scale)]
        self.seed = seed
        sizes = self.sizes
        self.scenario = make_scenario(
            workload, sizes.batch_vms, sizes.batch_cloudlets, seed
        )
        self.load = build_trace(
            TraceSpec(requests=sizes.open_requests, rate=OPEN_LOOP_RPS, seed=seed)
        )
        self.check_load = build_trace(
            TraceSpec(requests=sizes.check_requests, rate=OPEN_LOOP_RPS, seed=seed + 1)
        )
        self.fleets = [
            FleetSpec(
                name=f"{prefix}{name}",
                num_vms=sizes.serve_vms,
                scheduler=name,
                family="homogeneous" if workload == "homog" else "heterogeneous",
                seed=seed,
            )
            for prefix in ("", "check-")
            for name in SERVE_SCHEDULERS
        ]
        self.server = ServerProcess(self.fleets, trace)
        # A two-chunk sharded run spawns and warms the pool's workers while
        # the server boots.
        shutdown_shard_pool()
        StreamingSimulation(
            homogeneous_stream(2, 2, seed=seed, chunk_size=1),
            make_streaming_scheduler("basetest"),
            seed=seed,
            shards=SHARDS,
        ).run()
        self.server.wait_ready()
        self.connections = max(1, min(len(os.sched_getaffinity(0)), 16))
        self.stream_hashes: dict[str, str] = {}
        self.batch_hashes: dict[str, str] = {}

    def close(self) -> None:
        self.server.stop()
        shutdown_shard_pool()

    # -- correctness pass --------------------------------------------------

    def check_serving(self, ledger: Ledger) -> None:
        """Live placements equal the offline engine's (untimed)."""
        for spec in self.fleets:
            if not spec.name.startswith("check-"):
                continue
            report = replay(
                self.check_load, spec.name, HOST, self.server.port,
                time_scale=0.0, max_connections=self.connections, collect=True,
            )
            try:
                assert_bit_identical(spec, self.check_load, report)
                ok, why = True, ""
            except AssertionError as exc:
                ok, why = False, str(exc)
            ledger.check(ok, f"serve/{spec.scheduler}: {why}")

    # -- one measured pass -------------------------------------------------

    def run_pass(self, ledger: Ledger, traced: bool) -> PassResult:
        out = PassResult()
        self.server.set_tracing(traced)
        self._stream_phase(out, ledger, traced)
        self._batch_phase(out, ledger, traced)
        self._serve_phase(out, ledger, traced)
        return out

    def _stream_phase(self, out: PassResult, ledger: Ledger, traced: bool) -> None:
        sizes = self.sizes
        stream = make_stream(
            self.workload, sizes.stream_vms, sizes.stream_cloudlets, self.seed,
            chunk_size=sizes.stream_chunk,
        )
        if traced:
            stream = tracing.traced_stream(stream)
        for name in STREAM_SCHEDULERS:
            out.calibration_s.append(calibrate())
            results = {}
            for shards in (None, SHARDS):
                sim = StreamingSimulation(
                    stream, make_streaming_scheduler(name), seed=self.seed, shards=shards
                )
                before = TELEMETRY.snapshot() if traced else None
                t0 = time.perf_counter()
                results[shards] = sim.run()
                wall = time.perf_counter() - t0
                ledger.attempted += 1
                out.items[f"{'serial' if shards is None else 'sharded'}/{name}"] = wall
                if traced:
                    diff = TELEMETRY.snapshot().diff(before)
                    _count_into(out.counters, diff)
                    if shards is None:
                        layers = tracing.self_times(diff)
                    else:
                        layers, skew = tracing.sharded_run_layers(diff, wall)
                        out.shard_skews.append(skew)
                    out.charge(layers, wall)
                    for metric in (
                        "schedulers.streaming.open_s",
                        "schedulers.streaming.assign_s",
                        "schedulers.streaming.plan_carries_s",
                    ):
                        key = f"{metric}.{name}"
                        out.detail[key] = out.detail.get(key, 0.0) + layers.get(metric, 0.0)
            serial, sharded = results[None], results[SHARDS]
            ledger.check(
                same_accumulators(self.workload, serial, sharded),
                f"stream/{name}: sharded accumulators differ from serial",
            )
            digest = decision_hash(serial.vm_finish_times, serial.vm_costs)
            expected = self.stream_hashes.setdefault(name, digest)
            ledger.check(digest == expected, f"stream/{name}: decisions changed between passes")

    def _batch_phase(self, out: PassResult, ledger: Ledger, traced: bool) -> None:
        for name in BATCH_SCHEDULERS:
            out.calibration_s.append(calibrate())
            scheduler = make_scheduler(name)
            context = SchedulingContext.from_scenario(self.scenario, self.seed)
            before = TELEMETRY.snapshot() if traced else None
            t0 = time.perf_counter()
            result = scheduler.schedule_checked(context)
            wall = time.perf_counter() - t0
            ledger.attempted += 1
            out.items[f"batch/{name}"] = wall
            if traced:
                diff = TELEMETRY.snapshot().diff(before)
                _count_into(out.counters, diff)
                out.charge(tracing.self_times(diff), wall)
                out.detail[f"schedulers.sched_s.{name}"] = wall
            digest = decision_hash(result.assignment)
            expected = self.batch_hashes.setdefault(name, digest)
            ledger.check(digest == expected, f"batch/{name}: decisions changed between passes")

    def _serve_phase(self, out: PassResult, ledger: Ledger, traced: bool) -> None:
        with pinned_to_first_cpu():
            self._serve_loops(out, ledger, traced)

    def _serve_loops(self, out: PassResult, ledger: Ledger, traced: bool) -> None:
        port = self.server.port
        requests = self.sizes.closed_requests
        for name in SERVE_SCHEDULERS:
            out.calibration_s.append(calibrate())
            before = self.server.stats() if traced else None
            cpu0 = time.process_time()
            wall, round_trips, failed = closed_loop(port, name, self.load, requests)
            client_cpu = time.process_time() - cpu0
            ledger.attempted += requests
            ledger.failures.extend(f"serve/{name}: closed-loop request failed" for _ in range(failed))
            out.closed_requests += requests
            out.items[f"closed/{name}"] = wall
            if traced:
                after = self.server.stats()
                diff = _snapshot(after).diff(_snapshot(before))
                layers = tracing.self_times(diff)
                layers.pop("unattributed_s", None)
                layers["serve.http.io_s"] = round_trips - sum(layers.values())
                layers["loadgen.client_s"] = wall - round_trips
                out.charge(layers, wall)
                tracing.add_into(
                    out.detail,
                    {
                        "serve.server_cpu_s": after["cpu_s"] - before["cpu_s"],
                        "loadgen.cpu_s": client_cpu,
                    },
                )
        sends: list = []
        for name in SERVE_SCHEDULERS:
            with tracing.recording_sends(sends if traced else None):
                report = replay(
                    self.load, name, HOST, port, time_scale=1.0,
                    max_connections=self.connections, collect=False,
                )
            ledger.attempted += report.requests
            ledger.failures.extend(
                f"serve/{name}: open-loop request failed" for _ in range(report.errors)
            )
            out.open_latencies_ms.append(report.latencies_ms)
            if traced:
                out.lags_ms.append(tracing.send_lag_ms(sends, self.load.times))
                sends.clear()


def _snapshot(stats: dict):
    from repro.obs.telemetry import TelemetrySnapshot

    return TelemetrySnapshot.from_dict(stats["telemetry"])
