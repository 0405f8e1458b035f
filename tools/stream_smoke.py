#!/usr/bin/env python
"""Streaming-path smoke: the CI gate for the paper-scale memory budget.

Runs a capped 100,000-cloudlet point through every natively streaming
scheduler and asserts the contract the docs promise.  ``--family
homogeneous`` (the default) streams constant cloudlets, which reach the
closed-form assigners; ``--family heterogeneous`` streams random lengths
over mixed VMs, which reach greedy-MCT's and honey-bee's general paths:

1. **Memory budget** — process peak RSS stays below the documented
   budget (default 512 MiB) for the whole sweep, asserted per scheduler
   (so an O(n) buffer sneaking back into *one* assigner fails fast with
   its name) and once more at the end.  The streaming path holds
   O(num_vms + chunk_size) state, so this passes with room to spare; the
   same point on the in-memory engines allocates O(n) per-cloudlet
   arrays per run.
2. **Chunk invariance** — every bounded metric (and the per-VM
   accumulator arrays) is bit-identical across chunk sizes, in both
   families.  Constant cloudlets fold from per-VM counts at every shard
   count, so on the homogeneous family each scheduler also runs once in
   collect mode, and the bounded accumulators must equal, byte for byte,
   one ``np.add.at`` fold of that run's assignment and costs (the
   rebuild's oracle).
3. **Telemetry** — ``stream.chunks`` / ``stream.peak_rss`` gauges are
   populated when telemetry is on.
4. **Shard invariance** (``--shards N``) — the same points run sharded
   give the same ``info`` diagnostics (apart from the shard count, peak
   RSS and telemetry), and the merged peak-RSS figure (max across shard
   workers) still fits the budget.  The homogeneous workload is
   constant-cloudlet, so the merged metrics and per-VM accumulators are
   bit-identical at any shard count.  Random lengths reassociate the
   per-VM sums at each shard boundary, so heterogeneous ones must agree
   to ``rtol=1e-9`` (``SHARD_RTOL``, perfbench's ``same_accumulators``
   bar); see docs/performance.md, "The shard-safety contract".

Prints per-scheduler throughput; exit status 0 on success, any contract
violation raises.

Usage::

    PYTHONPATH=src python tools/stream_smoke.py [--cloudlets 100000]
        [--budget-mib 512] [--shards 2] [--family heterogeneous]
"""

from __future__ import annotations

import time

import numpy as np
from _smoke import run, smoke_parser  # noqa: E402 - puts src/ on sys.path
from repro import obs
from repro.cloud.fast import StreamingSimulation, peak_rss_bytes, shutdown_shard_pool
from repro.obs.telemetry import TELEMETRY
from repro.schedulers.streaming import STREAMING_SCHEDULERS, make_streaming_scheduler
from repro.workloads.streaming import heterogeneous_stream, homogeneous_stream

NUM_VMS = 1_000
SEED = 0
#: chunk sizes checked for metric invariance (second one re-run per scheduler).
CHUNK_SIZES = (8_192, 65_536)
#: ``info`` keys a sharded run reports differently from the serial run.
SHARD_VARIANT_INFO = ("shards", "peak_rss_bytes", "telemetry")
FAMILIES = {"homogeneous": homogeneous_stream, "heterogeneous": heterogeneous_stream}
#: Relative tolerance of sharded heterogeneous metrics (no absolute slack).
SHARD_RTOL = 1e-9
#: Merged metrics and per-VM accumulators compared across runs.
COMPARED = ("makespan", "time_imbalance", "total_cost", "vm_finish_times", "vm_costs")


def run_one(
    name: str, family: str, num_cloudlets: int, chunk_size: int, shards: int | None = None
):
    stream = FAMILIES[family](NUM_VMS, num_cloudlets, seed=SEED, chunk_size=chunk_size)
    t0 = time.perf_counter()
    result = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, shards=shards
    ).run()
    return result, time.perf_counter() - t0


def check_same(name: str, what: str, a, b, rtol: float = 0.0) -> None:
    """Raise unless every ``COMPARED`` field of ``a`` and ``b`` agrees.

    ``rtol=0`` asks for bit equality; otherwise values must agree to
    ``rtol`` relative to ``b``.
    """
    for field in COMPARED:
        x, y = (np.asarray(getattr(r, field), dtype=float) for r in (a, b))
        same = (
            x.tobytes() == y.tobytes()
            if rtol == 0.0
            else bool(np.allclose(x, y, rtol=rtol, atol=0.0))
        )
        if not same:
            detail = f": {x.item()!r} != {y.item()!r}" if x.ndim == 0 else ""
            raise AssertionError(f"{name}: {field} not {what}{detail}")


def check_add_at_fold(name: str, num_cloudlets: int, result) -> None:
    """Raise unless a homogeneous ``result``'s per-VM accumulators equal one
    ``np.add.at`` fold over a collect-mode run of the same point."""
    stream = homogeneous_stream(NUM_VMS, num_cloudlets, seed=SEED, chunk_size=CHUNK_SIZES[1])
    collected = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, collect=True
    ).run()
    assignment = collected.assignment
    lengths = stream.to_arrays().cloudlet_length
    folds = {"vm_finish_times": np.zeros(NUM_VMS), "vm_costs": np.zeros(NUM_VMS)}
    np.add.at(folds["vm_finish_times"], assignment, lengths / stream.vm_mips[assignment])
    np.add.at(folds["vm_costs"], assignment, collected.costs)
    for field, fold in folds.items():
        if getattr(result, field).tobytes() != fold.tobytes():
            raise AssertionError(
                f"{name}: {field} differs from the np.add.at fold of a collect-mode run"
            )


def main(argv: list[str] | None = None) -> int:
    parser = smoke_parser(__doc__)
    parser.add_argument("--cloudlets", type=int, default=100_000)
    parser.add_argument(
        "--budget-mib",
        type=float,
        default=512.0,
        help="peak-RSS ceiling for the whole smoke (documented budget)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="additionally run each point sharded and require it to agree",
    )
    parser.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default="homogeneous",
        help="constant cloudlets (default) or random lengths over mixed VMs",
    )
    args = parser.parse_args(argv)
    shard_rtol = 0.0 if args.family == "homogeneous" else SHARD_RTOL
    budget_bytes = int(args.budget_mib * 2**20)
    merged_peak = 0

    with obs.enabled(True):
        for name in sorted(STREAMING_SCHEDULERS):
            baseline, _ = run_one(name, args.family, args.cloudlets, CHUNK_SIZES[0])
            result, elapsed = run_one(name, args.family, args.cloudlets, CHUNK_SIZES[1])
            check_same(name, "chunk-invariant", baseline, result)
            if args.family == "homogeneous":
                check_add_at_fold(name, args.cloudlets, result)
            # Per-scheduler gate: ru_maxrss is a process-lifetime high-water
            # mark, so the first scheduler to blow the budget is the one
            # named here — an O(n) regression can't hide behind the
            # whole-sweep check below.
            if result.peak_rss_bytes > budget_bytes:
                raise AssertionError(
                    f"{name}: peak RSS {result.peak_rss_bytes / 2**20:.0f} MiB "
                    f"exceeds the {args.budget_mib:.0f} MiB budget"
                )
            print(
                f"{name:12s} {args.cloudlets} cloudlets in {elapsed:6.2f}s "
                f"({args.cloudlets / elapsed:12,.0f} cloudlets/s)  "
                f"makespan={result.makespan:g}  "
                f"peak RSS {result.peak_rss_bytes / 2**20:.0f} MiB"
            )
            if args.shards:
                sharded, sh_elapsed = run_one(
                    name, args.family, args.cloudlets, CHUNK_SIZES[1], shards=args.shards
                )
                check_same(name, "shard-invariant", sharded, result, shard_rtol)
                serial_info, sharded_info = (
                    {k: v for k, v in info.items() if k not in SHARD_VARIANT_INFO}
                    for info in (result.info, sharded.info)
                )
                if sharded_info != serial_info:
                    keys = sorted(
                        k for k in serial_info.keys() | sharded_info.keys()
                        if serial_info.get(k) != sharded_info.get(k)
                    )
                    raise AssertionError(f"{name}: info not shard-invariant: {keys}")
                if sharded.peak_rss_bytes > budget_bytes:
                    raise AssertionError(
                        f"{name} (--shards {args.shards}): worker peak RSS "
                        f"{sharded.peak_rss_bytes / 2**20:.0f} MiB exceeds "
                        f"the {args.budget_mib:.0f} MiB budget"
                    )
                merged_peak = max(merged_peak, sharded.peak_rss_bytes)
                agreement = (
                    f"within rtol={shard_rtol:g}" if shard_rtol else "bit-identical"
                )
                print(
                    f"{'':12s} --shards {args.shards}: {sh_elapsed:6.2f}s, "
                    f"{agreement}, worker peak RSS "
                    f"{sharded.peak_rss_bytes / 2**20:.0f} MiB"
                )
        gauges = TELEMETRY.snapshot().to_dict()["gauges"]
    if args.shards:
        shutdown_shard_pool()
    if "stream.chunks" not in gauges or "stream.peak_rss" not in gauges:
        raise AssertionError(f"stream gauges missing from telemetry: {sorted(gauges)}")

    # With shards, the binding figure is the max across parent and shard
    # workers (a parent-only read would silently under-report).
    peak = max(peak_rss_bytes(), merged_peak)
    print(f"peak RSS: {peak / 2**20:.0f} MiB (budget {args.budget_mib:.0f} MiB)")
    if peak > budget_bytes:
        raise AssertionError(
            f"peak RSS {peak} bytes exceeds the {budget_bytes}-byte budget"
        )
    print("stream smoke OK")
    return 0


if __name__ == "__main__":
    run(main)
