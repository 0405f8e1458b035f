"""Timing proxies around each layer's public calls, and the layer ledger.

The benchmark treats ``repro`` as a black box: it never edits the
program, it wraps the public entry points of each layer in a proxy that
opens a :mod:`repro.obs.telemetry` span named after the layer.  Telemetry
already nests spans by path and merges worker snapshots into the parent,
so the same spans carry worker-side timings back from the shard pool.

A layer's self time is its span's total minus the totals of its direct
child spans.  Spans the program emits itself (``sim.execute``,
``optim.run``, ``aco.construct``, ...) carry no layer of their own and
count towards the nearest enclosing proxy span, except ``serve.submit``,
which is exactly the fleet's assign call.  Everything under
``plan_carries`` is carry planning, whatever it calls.

Workers of the shard pool are separate spawned processes.  A stream
wrapped by :func:`traced_stream` installs the proxies in whichever
process unpickles it, which is how a traced sharded run reaches them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from repro.obs.telemetry import TELEMETRY, TelemetrySnapshot
from repro.workloads.streaming import ScenarioChunks

GEN = "workloads.streaming.gen"
OPEN = "schedulers.streaming.open"
ASSIGN = "schedulers.streaming.assign"
PLAN = "schedulers.streaming.plan_carries"
SHARD = "cloud.fast.execute_shard"
RUN = "cloud.fast.run"
SCHED = "schedulers.schedule_checked"
KERNEL = "optim.kernel"
MOVE = "optim.move"
LOOP = "optim.loop"
PARSE = "serve.protocol.parse"
SUBMIT = "serve.service.submit"
ENCODE = "serve.encode"

#: span name -> per-layer metric its self time is reported under.
SELF_METRIC = {
    GEN: "workloads.streaming.gen_s",
    OPEN: "schedulers.streaming.open_s",
    ASSIGN: "schedulers.streaming.assign_s",
    PLAN: "schedulers.streaming.plan_carries_s",
    SHARD: "cloud.fast.fold_s",
    RUN: "cloud.fast.dispatch_merge_s",
    SCHED: "schedulers.self_s",
    KERNEL: "optim.kernel_s",
    MOVE: "optim.move_s",
    LOOP: "optim.loop_s",
    PARSE: "serve.protocol.parse_s",
    SUBMIT: "serve.service.fold_s",
    "serve.submit": "serve.service.assign_s",
    ENCODE: "serve.encode_s",
}

#: spans whose whole subtree is charged to themselves.
ABSORBING = {PLAN}

#: prefix of the per-shard wall-time gauges a traced worker records.
SHARD_GAUGE = "perfbench.shard_wall_s."

CHUNKS_COUNTER = "perfbench.chunks"

_installed: set[str] = set()
_depth: dict[str, int] = defaultdict(int)


def _timed(fn: Callable, span: str) -> Callable:
    """``fn`` inside a span; a call nested in the same span runs bare."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TELEMETRY.enabled or _depth[span]:
            return fn(*args, **kwargs)
        _depth[span] += 1
        try:
            with TELEMETRY.span(span):
                return fn(*args, **kwargs)
        finally:
            _depth[span] -= 1

    wrapper.__perfbench_original__ = fn
    return wrapper


def _patch(owner: Any, attr: str, span: str) -> None:
    original = getattr(owner, attr)
    if not hasattr(original, "__perfbench_original__"):
        setattr(owner, attr, _timed(original, span))


def _timed_iteration(iterator, span: str):
    """Yield from ``iterator``, timing each ``next`` as ``span``."""
    while True:
        if not TELEMETRY.enabled:
            try:
                item = next(iterator)
            except StopIteration:
                return
        else:
            with TELEMETRY.span(span):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            TELEMETRY.count(CHUNKS_COUNTER)
        yield item


def install_streaming() -> None:
    """Proxies for chunk generation, assigners, the fold and the merge."""
    if "streaming" in _installed:
        return
    _installed.add("streaming")
    from repro.cloud import fast
    from repro.schedulers.streaming import STREAMING_SCHEDULERS

    original_range = ScenarioChunks.iter_cloudlet_range

    @functools.wraps(original_range)
    def iter_cloudlet_range(self, start, stop):
        return _timed_iteration(original_range(self, start, stop), GEN)

    ScenarioChunks.iter_cloudlet_range = iter_cloudlet_range

    for cls in STREAMING_SCHEDULERS.values():
        original_open = cls.open

        def open_(self, stream, rng, carry=None, _open=original_open):
            if not TELEMETRY.enabled:
                return _open(self, stream, rng, carry)
            with TELEMETRY.span(OPEN):
                assigner = _open(self, stream, rng, carry)
            # Assigner classes are often local to ``open``; time the
            # instance's bound method instead of patching a class.
            assigner.assign = _timed(assigner.assign, ASSIGN)
            return assigner

        cls.open = functools.wraps(original_open)(open_)
        _patch(cls, "plan_carries", PLAN)

    original_shard = fast.execute_shard

    @functools.wraps(original_shard)
    def execute_shard(stream, scheduler, seed, plan, *args, **kwargs):
        if not TELEMETRY.enabled:
            return original_shard(stream, scheduler, seed, plan, *args, **kwargs)
        t0 = time.perf_counter()
        with TELEMETRY.span(SHARD):
            outcome = original_shard(stream, scheduler, seed, plan, *args, **kwargs)
        TELEMETRY.gauge(f"{SHARD_GAUGE}{plan.index}", time.perf_counter() - t0)
        return outcome

    fast.execute_shard = execute_shard
    _patch(fast.StreamingSimulation, "run", RUN)


def install_batch() -> None:
    """Proxies for ``schedule_checked``, the fitness kernel and move operators."""
    if "batch" in _installed:
        return
    _installed.add("batch")
    import repro.schedulers  # noqa: F401 - registers every MoveOperator
    from repro.optim import FitnessKernel, IncrementalLoads, IterativeOptimizer
    from repro.optim.loop import MoveOperator
    from repro.schedulers.base import Scheduler

    _patch(Scheduler, "schedule_checked", SCHED)
    for attr in (
        "__init__", "row", "time", "assignment_times", "loads_of", "makespan",
        "batch_loads", "batch_makespans", "uniform_batch_makespans",
    ):
        _patch(FitnessKernel, attr, KERNEL)
    for attr in ("__init__", "propose", "commit", "reject", "imbalance"):
        _patch(IncrementalLoads, attr, KERNEL)
    _patch(IterativeOptimizer, "run", LOOP)
    pending = list(MoveOperator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("initialize", "step", "finalize"):
            if attr in vars(cls):
                _patch(cls, attr, MOVE)


def install_serve() -> None:
    """Proxies for request parse, fleet submit and response encode."""
    if "serve" in _installed:
        return
    _installed.add("serve")
    from repro.serve import http, service

    _patch(http, "decode_json", PARSE)
    _patch(service, "parse_submission", PARSE)
    _patch(service.Fleet, "submit", SUBMIT)
    _patch(service.Placement, "to_payload", ENCODE)


@dataclasses.dataclass(frozen=True)
class TracedChunks(ScenarioChunks):
    """A stream whose unpickling installs the streaming proxies first."""

    def __reduce__(self):
        return (_load_traced, (_fields(self),))


def _fields(stream) -> dict:
    return {f.name: getattr(stream, f.name) for f in dataclasses.fields(stream)}


def _load_traced(values: dict) -> TracedChunks:
    install_streaming()
    return TracedChunks(**values)


def traced_stream(stream: ScenarioChunks) -> TracedChunks:
    """The same stream, carrying the streaming proxies into pool workers."""
    return TracedChunks(**_fields(stream))


@contextlib.contextmanager
def recording_sends(log: "list | None"):
    """While active, log ``(index, instant)`` whenever the load generator
    encodes request ``index`` -- the moment it dispatches it."""
    if log is None:
        yield
        return
    from repro.serve.loadgen import LoadTrace

    original = LoadTrace.body

    def body(self, i):
        log.append((i, time.perf_counter()))
        return original(self, i)

    LoadTrace.body = body
    try:
        yield
    finally:
        LoadTrace.body = original


def send_lag_ms(log: list, scheduled: np.ndarray) -> np.ndarray:
    """How late each request went out relative to its schedule, in ms.

    The first dispatch anchors the clock, so lags are relative to it.
    """
    index = np.array([i for i, _ in log], dtype=np.int64)
    sent = np.array([t for _, t in log])
    first = int(np.argmin(index))
    due = scheduled[index] - scheduled[index[first]]
    return ((sent - sent[first]) - due) * 1e3


# -- ledger -----------------------------------------------------------------


def self_times(snap: TelemetrySnapshot, roots: "tuple[str, ...] | None" = None) -> dict[str, float]:
    """Per-metric self seconds of every span tree (optionally only ``roots``)."""
    totals = {path: stat.total_s for path, stat in snap.spans.items()}
    if roots is not None:
        totals = {
            p: t for p, t in totals.items() if p.split("/", 1)[0] in roots
        }
    child_sum: dict[str, float] = defaultdict(float)
    for path, total in totals.items():
        parent, sep, _ = path.rpartition("/")
        if sep:
            child_sum[parent] += total
    out: dict[str, float] = defaultdict(float)
    for path, total in totals.items():
        metric = _owner(path.split("/"))
        out[metric] += total - child_sum[path]
    return dict(out)


def _owner(segments: list[str]) -> str:
    for name in segments:
        if name in ABSORBING:
            return SELF_METRIC[name]
    for name in reversed(segments):
        if name in SELF_METRIC:
            return SELF_METRIC[name]
    return "unattributed_s"


def shard_walls(snap: TelemetrySnapshot) -> list[float]:
    return [v for k, v in snap.gauges.items() if k.startswith(SHARD_GAUGE)]


def sharded_run_layers(diff: TelemetrySnapshot, wall: float) -> tuple[dict[str, float], float]:
    """Critical-path ledger of one pool-parallel run; returns (layers, skew).

    The parent plans carries, dispatches, waits for the slowest shard and
    merges.  Worker self times are scaled onto the slowest shard's wall,
    and dispatch+merge is the rest of the run's wall.
    """
    workers = self_times(diff, roots=(SHARD,))
    if not workers:
        # A stream with fewer chunks than shards runs its one shard inline.
        return self_times(diff), 1.0
    parent = self_times(diff, roots=(RUN,))
    walls = shard_walls(diff) or [0.0]
    slowest = max(walls)
    busy = sum(workers.values())
    scale = slowest / busy if busy > 0 else 0.0
    layers = {name: seconds * scale for name, seconds in workers.items()}
    plan = parent.get(SELF_METRIC[PLAN], 0.0)
    layers[SELF_METRIC[PLAN]] = layers.get(SELF_METRIC[PLAN], 0.0) + plan
    layers[SELF_METRIC[RUN]] = max(0.0, wall - plan - slowest)
    skew = slowest / (sum(walls) / len(walls)) if sum(walls) > 0 else 1.0
    return layers, skew


def add_into(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0.0) + value
