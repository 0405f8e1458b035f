"""Serving-layer benchmarks — request latency and delivered throughput.

Three views of the same service:

* the in-process submission floor (scheduler + fold, no HTTP),
* one HTTP round trip on a quiet server,
* a seeded open-loop replay with the SLO gates and the offline
  bit-identity check — the configuration whose percentiles ``main``
  records into the committed ``BENCH_serve.json``.

Latency in the replay rows is measured from each request's *scheduled*
arrival instant to response completion (coordinated-omission-free), so
the percentiles include any queueing the service caused.

Run as a script to regenerate the committed results file::

    PYTHONPATH=src:. python benchmarks/bench_serve_latency.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.serve import (
    SERVABLE_SCHEDULERS,
    FleetSpec,
    SchedulerService,
    SloSpec,
    TraceSpec,
    assert_bit_identical,
    build_trace,
    replay,
    replay_inprocess,
    start_http_server,
)

NUM_VMS = 500
SEED = 0
#: open-loop arrival rate (requests/s) the committed percentiles are measured
#: at — the same rate the CI smoke gate (tools/serve_smoke.py) applies.
RATE = 1_500.0
#: requests per recorded replay (~13 s of simulated arrivals at RATE).
REQUESTS = 20_000
#: the documented serving SLO (docs/serving.md) applied to every recorded run.
SLO = SloSpec(p50_ms=100.0, p99_ms=750.0, min_throughput_rps=0.7 * RATE)


def make_service(scheduler: str) -> "tuple[FleetSpec, SchedulerService]":
    spec = FleetSpec(name=scheduler, num_vms=NUM_VMS, scheduler=scheduler, seed=SEED)
    service = SchedulerService()
    service.add_fleet(spec)
    return spec, service


@pytest.mark.parametrize("scheduler", sorted(SERVABLE_SCHEDULERS))
def test_inprocess_submit_floor(benchmark, scheduler):
    """Service-core latency with HTTP taken out: parse-free constant batches."""
    _, service = make_service(scheduler)
    payload = {"count": 16, "length": 1_000.0}
    benchmark(lambda: service.submit(scheduler, payload))


@pytest.mark.parametrize("scheduler", sorted(SERVABLE_SCHEDULERS))
def test_http_roundtrip(benchmark, scheduler):
    """One submission over the wire on an otherwise idle server."""
    import json as _json
    import socket

    _, service = make_service(scheduler)
    body = _json.dumps({"count": 16, "length": 1_000.0}).encode()
    head = (
        f"POST /v1/fleets/{scheduler}/submit HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()

    with start_http_server(service) as handle:
        with socket.create_connection((handle.host, handle.port)) as sock:
            def roundtrip():
                sock.sendall(head + body)
                buf = b""
                while b"\r\n\r\n" not in buf:
                    buf += sock.recv(65536)
                header, _, rest = buf.partition(b"\r\n\r\n")
                length = next(
                    int(line.split(b":")[1])
                    for line in header.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                )
                while len(rest) < length:
                    rest += sock.recv(65536)
                assert header.split()[1] == b"200"

            benchmark(roundtrip)


def test_open_loop_replay_meets_slo_and_matches_offline(benchmark):
    """A small seeded replay passes the SLO and reproduces offline placements."""
    spec, service = make_service("greedy-mct")
    trace = build_trace(TraceSpec(requests=500, rate=RATE, seed=SEED + 1))

    def run():
        with start_http_server(service) as handle:
            return replay(trace, "greedy-mct", handle.host, handle.port)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.errors == 0
    assert SloSpec(p99_ms=5_000.0).violations(report) == []
    assert_bit_identical(spec, trace, report, chunk_sizes=(4_096,))
    benchmark.extra_info["throughput_rps"] = round(report.throughput_rps, 1)
    benchmark.extra_info["latency_p50_ms"] = round(report.p50_ms, 3)
    benchmark.extra_info["latency_p99_ms"] = round(report.p99_ms, 3)


def _record_scheduler(scheduler: str) -> dict:
    trace = build_trace(TraceSpec(requests=REQUESTS, rate=RATE, seed=SEED + 1))

    spec, service = make_service(scheduler)
    with start_http_server(service) as handle:
        open_loop = replay(trace, scheduler, handle.host, handle.port)
    if open_loop.errors:
        raise AssertionError(f"{scheduler}: {open_loop.errors} failed requests")
    violations = SLO.violations(open_loop)
    if violations:
        raise AssertionError(f"{scheduler}: SLO violations: {violations}")
    assert_bit_identical(spec, trace, open_loop, chunk_sizes=(65_536,))

    spec, service = make_service(scheduler)
    with start_http_server(service) as handle:
        saturated = replay(
            trace, scheduler, handle.host, handle.port, time_scale=0.0
        )
    if saturated.errors:
        raise AssertionError(f"{scheduler}: {saturated.errors} failed requests")

    spec, service = make_service(scheduler)
    floor = replay_inprocess(
        build_trace(TraceSpec(requests=2_000, rate=RATE, seed=SEED + 1)),
        service,
        scheduler,
    )
    return {
        "open_loop": {**open_loop.to_dict(), "rate_rps": RATE},
        "max_throughput": saturated.to_dict(),
        "inprocess_floor": floor.to_dict(),
    }


def main(out: "str | Path" = Path(__file__).parent.parent / "BENCH_serve.json") -> Path:
    """Regenerate the committed latency/throughput record.

    Placements are pinned bit-identical to the offline engine before any
    number is recorded; the timings themselves are machine-dependent (the
    committed file documents the reference machine's envelope, the SLO
    assertion is the portable part).
    """
    payload = {
        "benchmark": "serve_latency",
        "cpu_count": os.cpu_count(),
        "fleet": {"num_vms": NUM_VMS, "family": "homogeneous", "seed": SEED},
        "trace": {"requests": REQUESTS, "rate_rps": RATE, "seed": SEED + 1},
        "slo": {
            "p50_ms": SLO.p50_ms,
            "p99_ms": SLO.p99_ms,
            "min_throughput_rps": SLO.min_throughput_rps,
        },
        "schedulers": {
            name: _record_scheduler(name) for name in sorted(SERVABLE_SCHEDULERS)
        },
    }
    out = Path(out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name, rows in payload["schedulers"].items():
        ol = rows["open_loop"]
        print(
            f"{name:12s} open-loop {ol['throughput_rps']:7,.0f} rps  "
            f"p50 {ol['latency_p50_ms']:6.2f} ms  p99 {ol['latency_p99_ms']:7.2f} ms  "
            f"(max {rows['max_throughput']['throughput_rps']:7,.0f} rps)"
        )
    print(f"written to {out}")
    return out


if __name__ == "__main__":
    main()
