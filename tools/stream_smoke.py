#!/usr/bin/env python
"""Streaming-path smoke: the CI gate for the paper-scale memory budget.

Runs a capped 100,000-cloudlet homogeneous point through every natively
streaming scheduler and asserts the contract the docs promise:

1. **Memory budget** — process peak RSS stays below the documented
   budget (default 512 MiB) for the whole sweep, asserted per scheduler
   (so an O(n) buffer sneaking back into *one* assigner fails fast with
   its name) and once more at the end.  The streaming path holds
   O(num_vms + chunk_size) state, so this passes with room to spare; the
   same point on the in-memory engines allocates O(n) per-cloudlet
   arrays per run.
2. **Chunk invariance** — every bounded metric (and the per-VM
   accumulator arrays) is bit-identical across chunk sizes.
3. **Telemetry** — ``stream.chunks`` / ``stream.peak_rss`` gauges are
   populated when telemetry is on.
4. **Shard invariance** (``--shards N``) — the same points run sharded
   produce bit-identical results and the same ``info`` diagnostics
   (apart from the shard count, peak RSS and telemetry), and the merged
   peak-RSS figure (max across shard workers) still fits the budget.  The homogeneous
   workload is constant-cloudlet, so the merge is exact at any shard
   count (see docs/performance.md, "Sharded streaming").

Prints per-scheduler throughput; exit status 0 on success, any contract
violation raises.

Usage::

    PYTHONPATH=src python tools/stream_smoke.py [--cloudlets 100000]
        [--budget-mib 512] [--shards 2]
"""

from __future__ import annotations

import time

from _smoke import run, smoke_parser  # noqa: E402 - puts src/ on sys.path
from repro import obs
from repro.cloud.fast import StreamingSimulation, peak_rss_bytes, shutdown_shard_pool
from repro.obs.telemetry import TELEMETRY
from repro.schedulers.streaming import STREAMING_SCHEDULERS, make_streaming_scheduler
from repro.workloads.streaming import homogeneous_stream

NUM_VMS = 1_000
SEED = 0
#: chunk sizes checked for metric invariance (second one re-run per scheduler).
CHUNK_SIZES = (8_192, 65_536)
#: ``info`` keys a sharded run reports differently from the serial run.
SHARD_VARIANT_INFO = ("shards", "peak_rss_bytes", "telemetry")


def run_one(name: str, num_cloudlets: int, chunk_size: int, shards: int | None = None):
    stream = homogeneous_stream(
        NUM_VMS, num_cloudlets, seed=SEED, chunk_size=chunk_size
    )
    t0 = time.perf_counter()
    result = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=SEED, shards=shards
    ).run()
    return result, time.perf_counter() - t0


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
        help="additionally run each point sharded and require bit-equality",
    )
    args = parser.parse_args(argv)
    budget_bytes = int(args.budget_mib * 2**20)
    merged_peak = 0

    with obs.enabled(True):
        for name in sorted(STREAMING_SCHEDULERS):
            baseline, _ = run_one(name, args.cloudlets, CHUNK_SIZES[0])
            result, elapsed = run_one(name, args.cloudlets, CHUNK_SIZES[1])
            for field in ("makespan", "time_imbalance", "total_cost"):
                a, b = getattr(baseline, field), getattr(result, field)
                if a != b:
                    raise AssertionError(
                        f"{name}: {field} not chunk-invariant: {a!r} != {b!r}"
                    )
            if baseline.vm_finish_times.tobytes() != result.vm_finish_times.tobytes():
                raise AssertionError(f"{name}: vm_finish_times not chunk-invariant")
            if baseline.vm_costs.tobytes() != result.vm_costs.tobytes():
                raise AssertionError(f"{name}: vm_costs not chunk-invariant")
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
                    name, args.cloudlets, CHUNK_SIZES[1], shards=args.shards
                )
                for field in ("makespan", "time_imbalance", "total_cost"):
                    a, b = getattr(result, field), getattr(sharded, field)
                    if a != b:
                        raise AssertionError(
                            f"{name}: {field} not shard-invariant: {a!r} != {b!r}"
                        )
                if sharded.vm_finish_times.tobytes() != result.vm_finish_times.tobytes():
                    raise AssertionError(f"{name}: vm_finish_times not shard-invariant")
                if sharded.vm_costs.tobytes() != result.vm_costs.tobytes():
                    raise AssertionError(f"{name}: vm_costs not shard-invariant")
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
                print(
                    f"{'':12s} --shards {args.shards}: {sh_elapsed:6.2f}s, "
                    f"bit-identical, worker peak RSS "
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
