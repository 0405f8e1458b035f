"""The repo's benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload homog --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table and metrics.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output check failed.  ``--record FILE`` appends the run,
stamped with the host, to a JSON-lines file, and ``--compare BASE NEW``
compares two such files.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "serial_clps": "cloudlets/s",
    "sharded_clps": "cloudlets/s",
    "sched_s": "s",
    "serve_rps": "req/s",
    "serve_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from perfbench.phases import BATCH_SCHEDULERS, STREAM_SCHEDULERS
    from perfbench.tracing import SELF_METRIC

    units = {name: "s" for name in SELF_METRIC.values()}
    units.update({"serve.http.io_s": "s", "loadgen.client_s": "s", "unattributed_s": "s"})
    for metric in (
        "schedulers.streaming.open_s",
        "schedulers.streaming.assign_s",
        "schedulers.streaming.plan_carries_s",
    ):
        for name in STREAM_SCHEDULERS:
            units[f"{metric}.{name}"] = "s"
    for name in BATCH_SCHEDULERS:
        units[f"schedulers.sched_s.{name}"] = "s"
    units.update(
        {
            "workloads.streaming.chunks": "count",
            "cloud.fast.shard_skew": "ratio",
            "optim.evaluations": "count",
            "optim.kernel.rows_computed": "count",
            "optim.kernel.rows_memoised": "count",
            "optim.delta_accept_ratio": "ratio",
            "serve.server_cpu_ms_per_req": "ms",
            "loadgen.cpu_ms_per_req": "ms",
            "loadgen.lag_p99_ms": "ms",
            "serve.p99_ms": "ms",
            "traced_wall_s": "s",
            "attributed_ratio": "ratio",
            "trace_overhead_s": "s",
        }
    )
    return units


def stamp() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    """High-water RSS over this process and every child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def check_pins(values: dict, pins_path: Path, workload: str, ledger) -> None:
    pins = json.loads(pins_path.read_text())[workload]
    for key in sorted(set(pins) | set(values)):
        ledger.check(
            pins.get(key) == values.get(key),
            f"pin {key}: expected {pins.get(key)}, got {values.get(key)}",
        )


#: Share of an item's samples cut from each end before averaging.
TRIM = 0.10


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and highest :data:`TRIM` share.

    Over 2 x 10 runs per workload, the run-to-run spread of the summed
    items was 10-25 % lower with this than with the median, and a few
    slow samples still cannot move it.
    """
    ordered = sorted(values)
    cut = int(TRIM * len(ordered))
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(passes, setups: list[float], sizes, at_reference: bool = True) -> dict[str, float]:
    """The end-to-end metrics of a run's passes.

    Each timed item's wall time is divided by its pass's host factor, so
    the CPU-bound metrics read as at the reference host speed; a metric
    then sums the per-item trimmed means over the passes.  Set-up, which
    spawns and imports in several processes at once, is divided by the
    run's median host factor: that halved the drift of its median between
    two sets of ten runs.  Latency and memory are reported as measured:
    the open-loop median did not follow the host factor.
    """
    import numpy as np

    host = statistics.median(p.host_factor for p in passes) if at_reference else 1.0

    def summed(kind: str) -> float:
        names = {key for p in passes for key in p.items if key.startswith(kind + "/")}
        return sum(
            trimmed_mean(
                p.items[key] / (p.host_factor if at_reference else 1.0) for p in passes
            )
            for key in names
        )

    stream_runs = sum(1 for key in passes[0].items if key.startswith("serial/"))
    closed = sum(1 for key in passes[0].items if key.startswith("closed/"))
    streamed = stream_runs * sizes.stream_cloudlets
    latencies = np.concatenate([lat for p in passes for lat in p.open_latencies_ms])
    return {
        "setup_s": float(statistics.median(setups)) / host,
        "serial_clps": streamed / summed("serial"),
        "sharded_clps": streamed / summed("sharded"),
        "sched_s": summed("batch"),
        "serve_rps": closed * sizes.closed_requests / summed("closed"),
        "serve_p50_ms": float(np.percentile(latencies, 50)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(traced, reference_wall: float) -> dict[str, float]:
    """Mean per traced pass of every per-layer metric."""
    import numpy as np

    n = len(traced)
    walls = [p.wall_s for p in traced]
    wall = sum(walls) / n
    out = {name: 0.0 for name, unit in per_layer_units().items() if unit == "s"}
    for p in traced:
        for name, seconds in {**p.layers, **p.detail}.items():
            if name in out:
                out[name] += seconds / n
    counters: dict[str, int] = {}
    for p in traced:
        for name, value in p.counters.items():
            counters[name] = counters.get(name, 0) + value
    proposed = counters.get("kernel.delta_proposed", 0)
    requests = sum(p.closed_requests for p in traced)
    attributed = sum(v for k, v in out.items() if k in layer_names()) - out["unattributed_s"]
    out.update(
        {
            "workloads.streaming.chunks": counters.get("perfbench.chunks", 0) / n,
            "cloud.fast.shard_skew": float(np.mean([s for p in traced for s in p.shard_skews])),
            "optim.evaluations": counters.get("optim.evaluations", 0) / n,
            "optim.kernel.rows_computed": counters.get("kernel.rows_computed", 0) / n,
            "optim.kernel.rows_memoised": counters.get("kernel.rows_memoised", 0) / n,
            "optim.delta_accept_ratio": (
                counters.get("kernel.delta_committed", 0) / proposed if proposed else 0.0
            ),
            "serve.server_cpu_ms_per_req": 1e3 * sum(
                p.detail.get("serve.server_cpu_s", 0.0) for p in traced
            ) / requests,
            "loadgen.cpu_ms_per_req": 1e3 * sum(
                p.detail.get("loadgen.cpu_s", 0.0) for p in traced
            ) / requests,
            "loadgen.lag_p99_ms": float(
                np.percentile(np.concatenate([lag for p in traced for lag in p.lags_ms]), 99)
            ),
            "serve.p99_ms": float(
                np.percentile(np.concatenate([lat for p in traced for lat in p.open_latencies_ms]), 99)
            ),
            "traced_wall_s": wall,
            "attributed_ratio": attributed / wall,
            "trace_overhead_s": statistics.median(walls) - reference_wall,
        }
    )
    return out


def layer_names() -> set[str]:
    """The time layers that partition a pass's timed wall."""
    from perfbench.tracing import SELF_METRIC

    return set(SELF_METRIC.values()) | {"serve.http.io_s", "loadgen.client_s", "unattributed_s"}


def print_layer_table(workload: str, metrics: dict[str, float]) -> None:
    wall = metrics["traced_wall_s"]
    rows = sorted(
        ((name, metrics[name]) for name in layer_names()), key=lambda row: -row[1]
    )
    print(f"layers of workload {workload!r}, seconds per traced pass "
          f"(wall {wall:.3f} s, tracing overhead {metrics['trace_overhead_s']:+.3f} s)")
    for name, seconds in rows:
        print(f"  {name:36s} {seconds:9.4f} s  {100 * seconds / wall:6.2f} %")
    largest = next(name for name, _ in rows if name != "unattributed_s")
    print(f"  largest layer: {largest}; attributed {100 * metrics['attributed_ratio']:.1f} %")


def measure(args) -> int:
    from perfbench import phases, tracing
    from repro.obs.telemetry import TELEMETRY

    ledger = phases.Ledger()
    setups: list[float] = []
    harness = None
    try:
        for _ in range(SETUP_REPEATS):
            if harness is not None:
                harness.close()
            t0 = time.perf_counter()
            harness = phases.Harness(args.workload, args.scale, args.seed, bool(args.trace))
            setups.append(time.perf_counter() - t0)
        check_pins(phases.pin_values(args.workload, ledger), args.pins, args.workload, ledger)
        harness.check_serving(ledger)

        if args.trace:
            tracing.install_streaming()
            tracing.install_batch()
        # A traced run alternates untraced and traced passes; the proxies
        # cost one flag test while telemetry is off, so the untraced passes
        # are the reference for the tracing overhead.
        passes, untraced = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(untraced) > len(passes)
            TELEMETRY.reset()
            TELEMETRY.enabled = traced
            t0 = time.perf_counter()
            p = harness.run_pass(ledger, traced=traced)
            TELEMETRY.disable()
            (passes if traced or not args.trace else untraced).append(p)
            print(
                f"pass {len(passes) + len(untraced)}{' traced' if traced else ''}: "
                f"{time.perf_counter() - t0:.2f} s (stream {p.seconds('serial'):.2f} + "
                f"{p.seconds('sharded'):.2f}, batch {p.seconds('batch'):.2f}, "
                f"closed loop {p.seconds('closed'):.2f}, host factor {p.host_factor:.2f})",
                file=sys.stderr,
            )
    finally:
        if harness is not None:
            harness.close()

    if args.trace:
        metrics = per_layer(passes, statistics.median(p.wall_s for p in untraced))
        units = per_layer_units()
        print_layer_table(args.workload, metrics)
    else:
        metrics = end_to_end(passes, setups, harness.sizes)
        units = END_TO_END_UNITS
        measured = end_to_end(passes, setups, harness.sizes, at_reference=False)
        print("as measured, host factor "
              f"{statistics.median(p.host_factor for p in passes):.3f}: "
              + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()))
    for failure in ledger.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "stamp": stamp(),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "item_walls_s": {key: [p.items[key] for p in passes] for key in passes[0].items},
        "host_factors": [p.host_factor for p in passes],
        "setup_walls_s": setups,
        "result": result,
    }
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def compare(base_path: str, new_path: str) -> int:
    """Median of each metric on each side, judged against the bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]

    base, new = load(base_path), load(new_path)
    counts = {r["stamp"]["cpu_count"] for r in base + new}
    if len(counts) != 1:
        print(f"refusing to compare records from hosts with cpu_count {sorted(counts)}",
              file=sys.stderr)
        return 2
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for name, bound in bounds.items():
            def med(records):
                values = [
                    r["result"]["metrics"][name]["value"]
                    for r in records
                    if r["workload"] == workload and name in r["result"]["metrics"]
                ]
                return statistics.median(values) if values else None

            b, n = med(base), med(new)
            if b is None or n is None:
                continue
            change = (n - b) / b if bound["better"] == "lower" else (b - n) / b
            verdict = "worse" if change > bound["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{workload:8s} {name:14s} base {b:14.6g}  new {n:14.6g}  "
                  f"worse by {100 * change:+7.2f} % (bound {100 * bound['bound']:.0f} %)  {verdict}")
    return 1 if worse else 0


#: prctl option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants may outlive the run before they are killed.
REAP_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so :func:`reap` can wait for them."""
    with contextlib.suppress(OSError, AttributeError):
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap(pgid: int) -> None:
    """Wait until every descendant of the run has ended, killing stragglers.

    As a subreaper this process inherits every orphan and waits for it;
    elsewhere it polls the run's process group until it is empty.
    """
    deadline = time.monotonic() + REAP_GRACE_S
    killed = False
    while True:
        children = True
        try:
            while os.waitpid(-1, os.WNOHANG) != (0, 0):
                pass
        except ChildProcessError:
            children = False
        try:
            os.killpg(pgid, 0)
            group = True
        except (ProcessLookupError, PermissionError):
            group = False
        if not children and not group:
            return
        if time.monotonic() > deadline:
            if killed:
                print("perfbench: descendants did not end after SIGKILL", file=sys.stderr)
                return
            killed = True
            deadline = time.monotonic() + REAP_GRACE_S
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a session of its own and outlive all it starts.

    Spawning the server and the pool's workers also starts
    multiprocessing's resource tracker, which exits only after the process
    that started it has gone; so the run happens in a child, and this
    process returns once the child and every process it left are gone.
    """
    become_subreaper()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--inner", *argv],
        start_new_session=True,
    )

    def stop(signum, frame):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(child.pid, signal.SIGKILL)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        reap(child.pid)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--inner" not in argv:
        return supervise(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=("homog", "hetero"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--pins", type=Path, default=HERE / "pins.json")
    parser.add_argument("--record", help="append the stamped run to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--print-pins", action="store_true",
                        help="print this workload's pinned values as measured now")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.print_pins:
        from perfbench import phases

        from repro.cloud.fast import shutdown_shard_pool

        ledger = phases.Ledger()
        try:
            print(json.dumps(phases.pin_values(args.workload, ledger), indent=2, sort_keys=True))
        finally:
            shutdown_shard_pool()
        return 0 if not ledger.failures else 1
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
