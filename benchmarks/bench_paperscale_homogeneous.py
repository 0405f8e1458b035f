"""Paper-scale homogeneous points on the streaming engine (Figs. 4/5).

The headline homogeneous study runs 1,000,000 cloudlets; the in-memory
engines materialise O(n) per-cloudlet arrays and records, so those points
were previously out of reach on commodity memory.  These benchmarks
exercise the streaming path at that scale and record what the paper's
tables need: throughput (cloudlets scheduled+executed per second) and the
process's peak RSS, per chunk size.

``--benchmark-only`` selects these; the 1M point runs a single round (the
workload itself is the repetition).

Run as a script to regenerate the committed record
(``BENCH_paperscale.json``): the 10M serial-vs-sharded point plus the
serial-only 100M point the constant-memory assigners unlock::

    PYTHONPATH=src:. python benchmarks/bench_paperscale_homogeneous.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cloud.fast import StreamingSimulation, peak_rss_bytes, shutdown_shard_pool
from repro.schedulers.streaming import make_streaming_scheduler
from repro.workloads.streaming import homogeneous_stream

#: the paper's headline workload size.
PAPER_CLOUDLETS = 1_000_000
#: the ROADMAP's next decade, exercised serial vs sharded.
TENX_CLOUDLETS = 10_000_000
#: two decades past the paper — reachable only because every assigner is
#: O(num_vms + chunk_size); run serial-only (the point is memory, and
#: the RBS plan pre-pass would double the serial walk on few cores).
HUNDREDM_CLOUDLETS = 100_000_000
#: Fig. 4a/5a's smallest fleet (keeps per-VM accumulators tiny).
NUM_VMS = 1_000
SEED = 0
BENCH_SHARDS = 4
SCHEDULERS = ("basetest", "greedy-mct", "honeybee", "rbs")

#: chunk-size sweep: memory/throughput trade-off, metrics invariant.
CHUNK_SIZES = (16_384, 65_536, 262_144)


def _record(benchmark, result, elapsed_hint: float | None = None) -> None:
    benchmark.extra_info["scheduler"] = result.scheduler_name
    benchmark.extra_info["num_cloudlets"] = result.num_cloudlets
    benchmark.extra_info["chunk_size"] = result.chunk_size
    benchmark.extra_info["num_chunks"] = result.num_chunks
    benchmark.extra_info["makespan"] = round(result.makespan, 4)
    benchmark.extra_info["time_imbalance"] = round(result.time_imbalance, 6)
    benchmark.extra_info["total_cost"] = round(result.total_cost, 2)
    benchmark.extra_info["peak_rss_mb"] = round(result.peak_rss_bytes / 2**20, 1)
    stats = getattr(benchmark, "stats", None)
    mean = getattr(getattr(stats, "stats", None), "mean", None) or elapsed_hint
    if mean:
        benchmark.extra_info["throughput_cloudlets_per_s"] = round(
            result.num_cloudlets / mean
        )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_paperscale_1m_roundrobin_chunk_sweep(benchmark, chunk_size):
    """1M-cloudlet round-robin point at each chunk size.

    Chunk size must not change any metric (pinned by the property suite);
    here it only moves the throughput/peak-RSS trade-off being measured.
    """
    stream = homogeneous_stream(
        NUM_VMS, PAPER_CLOUDLETS, seed=SEED, chunk_size=chunk_size
    )

    def run():
        return StreamingSimulation(
            stream, make_streaming_scheduler("basetest"), seed=SEED
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, result)
    # Fig. 4a at 1,000 VMs: ceil(1e6 / 1e3) * 250 / 1000 = 250 s exactly.
    assert result.makespan == 250.0
    assert result.num_chunks == -(-PAPER_CLOUDLETS // chunk_size)


@pytest.mark.parametrize("name", ["basetest", "greedy-mct", "honeybee", "rbs"])
def test_paperscale_200k_scheduler_sweep(benchmark, name):
    """All four streamed schedulers at a 200k-cloudlet point.

    Scaled to a fifth of the paper's workload so the full scheduler sweep
    stays CI-sized; throughput and RSS per scheduler land in extra_info.
    """
    stream = homogeneous_stream(NUM_VMS, 200_000, seed=SEED, chunk_size=65_536)

    def run():
        return StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=SEED
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, result)
    # Homogeneous fleet: every scheduler converges to the cyclic optimum.
    optimum = -(-200_000 // NUM_VMS) * 250.0 / 1000.0
    assert result.makespan <= optimum * 1.1
    assert result.peak_rss_bytes == peak_rss_bytes()


@pytest.mark.parametrize("shards", [None, BENCH_SHARDS])
def test_paperscale_10m_serial_vs_sharded(benchmark, shards):
    """The 10M-cloudlet point, serially and through the shard pool.

    Pins the refactor's contract at the next decade of scale: the sharded
    run must reproduce the serial metrics bit-for-bit (constant-workload
    merges are exact at any shard count) while staying inside the bounded
    memory envelope.  Relative timing depends on core count — the
    committed record lives in ``BENCH_paperscale.json`` (see ``main``).
    """
    stream = homogeneous_stream(
        NUM_VMS, TENX_CLOUDLETS, seed=SEED, chunk_size=65_536
    )

    def run():
        return StreamingSimulation(
            stream, make_streaming_scheduler("basetest"), seed=SEED, shards=shards
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, result)
    benchmark.extra_info["shards"] = result.info["shards"]
    # ceil(1e7 / 1e3) * 250 / 1000 = 2500 s exactly, any shard count.
    assert result.makespan == 2500.0
    if shards:
        shutdown_shard_pool()


def _bench_point(
    name: str,
    shards: int | None,
    rounds: int = 2,
    num_cloudlets: int = TENX_CLOUDLETS,
):
    """Best-of-``rounds`` timing for one (scheduler, mode, scale) cell."""
    stream = homogeneous_stream(
        NUM_VMS, num_cloudlets, seed=SEED, chunk_size=65_536
    )
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=SEED, shards=shards
        ).run()
        best = min(best, time.perf_counter() - t0)
    return result, best


def sweep_rows(
    num_cloudlets: int,
    shards: int | None = BENCH_SHARDS,
    rounds: int = 2,
    schedulers: "tuple[str, ...]" = SCHEDULERS,
) -> list[dict]:
    """One recorded row per scheduler at ``num_cloudlets``.

    With ``shards`` set, every row re-verifies the shard contract
    (bit-identical metrics and per-VM accumulators) before its timings
    are recorded, so the file can never pin a speedup obtained from a
    divergent result.  ``shards=None`` records serial-only rows (the
    100M point and the regression gauntlet's reduced-scale runs).
    """
    rows = []
    for name in schedulers:
        serial, serial_s = _bench_point(name, None, rounds, num_cloudlets)
        row = {
            "scheduler": name,
            "serial_seconds": round(serial_s, 3),
            "serial_throughput_cloudlets_per_s": round(num_cloudlets / serial_s),
            "serial_peak_rss_mb": round(serial.peak_rss_bytes / 2**20, 1),
            "makespan": serial.makespan,
        }
        if shards:
            sharded, sharded_s = _bench_point(name, shards, rounds, num_cloudlets)
            for field in ("makespan", "time_imbalance", "total_cost"):
                a, b = getattr(serial, field), getattr(sharded, field)
                if a != b:
                    raise AssertionError(
                        f"{name}: sharded {field} diverged: {a!r} != {b!r}"
                    )
            if serial.vm_finish_times.tobytes() != sharded.vm_finish_times.tobytes():
                raise AssertionError(f"{name}: sharded vm_finish_times diverged")
            if serial.vm_costs.tobytes() != sharded.vm_costs.tobytes():
                raise AssertionError(f"{name}: sharded vm_costs diverged")
            row.update(
                {
                    "sharded_seconds": round(sharded_s, 3),
                    "speedup_sharded_vs_serial": round(serial_s / sharded_s, 3),
                    "sharded_throughput_cloudlets_per_s": round(
                        num_cloudlets / sharded_s
                    ),
                    "sharded_peak_rss_mb": round(sharded.peak_rss_bytes / 2**20, 1),
                    "bit_identical": True,
                }
            )
            print(
                f"{name:12s} {num_cloudlets:>11,} serial {serial_s:6.2f}s  "
                f"sharded({shards}) {sharded_s:6.2f}s  bit-identical"
            )
        else:
            print(
                f"{name:12s} {num_cloudlets:>11,} serial {serial_s:6.2f}s  "
                f"peak RSS {row['serial_peak_rss_mb']:.0f} MiB"
            )
        rows.append(row)
    return rows


def main(
    out: "str | Path" = Path(__file__).parent.parent / "BENCH_paperscale.json",
    with_hundredm: bool = True,
) -> Path:
    """Regenerate the committed paper-scale streaming record.

    Two points: the 10M decade serial-vs-sharded (the shard contract and
    its overhead/speedup columns), and the 100M decade serial-only — the
    scale the constant-memory assigners unlock, recorded against the
    512 MiB smoke budget.  ``cpu_count`` is recorded because the speedup
    column only means something relative to it: with one core the pool
    serialises and sharding is pure overhead; parallel speedup needs
    >= ``shards`` cores.
    """
    points = [
        {
            "num_cloudlets": TENX_CLOUDLETS,
            "shards": BENCH_SHARDS,
            "rows": sweep_rows(TENX_CLOUDLETS, BENCH_SHARDS, rounds=2),
        }
    ]
    shutdown_shard_pool()
    if with_hundredm:
        points.append(
            {
                "num_cloudlets": HUNDREDM_CLOUDLETS,
                "shards": None,
                "rows": sweep_rows(HUNDREDM_CLOUDLETS, None, rounds=1),
            }
        )
    payload = {
        "benchmark": "paperscale_streaming",
        "num_vms": NUM_VMS,
        "chunk_size": 65_536,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "note": (
            "speedup_sharded_vs_serial is pool parallelism net of dispatch "
            "and merge (needs >= 'shards' cores; cpu_count is recorded for "
            "that). Constant workloads fold from counts at every shard "
            "count: serial and sharded runs alike count assignments per "
            "chunk and the merge rebuilds the per-VM folds from the counts, "
            "so neither pays a per-chunk float fold. rbs plans each "
            "carry from the boundary's partial sampling round, so its "
            "workers are the only ones to walk their ranges. peak RSS is the "
            "ru_maxrss high-water mark, max across parent and shard workers; "
            "the 100M point runs serial-only and must sit inside the 512 MiB "
            "stream-smoke budget."
        ),
        "points": points,
    }
    out = Path(out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"written to {out}")
    return out


if __name__ == "__main__":
    main()
