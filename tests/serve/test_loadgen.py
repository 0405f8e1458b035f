"""Load-generator tests: trace determinism, SLO gates, end-to-end replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    FleetSpec,
    LoadReport,
    SchedulerService,
    SloSpec,
    TraceSpec,
    assert_bit_identical,
    build_trace,
    replay,
    replay_inprocess,
    start_http_server,
)


class TestTrace:
    def test_same_spec_same_trace(self):
        spec = TraceSpec(requests=200, rate=1000.0, seed=42, bursts=((0.05, 20),))
        a, b = build_trace(spec), build_trace(spec)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.lengths, b.lengths)

    def test_seed_changes_the_trace(self):
        a = build_trace(TraceSpec(requests=100, seed=0))
        b = build_trace(TraceSpec(requests=100, seed=1))
        assert not np.array_equal(a.lengths[: min(a.num_cloudlets, b.num_cloudlets)],
                                  b.lengths[: min(a.num_cloudlets, b.num_cloudlets)])

    def test_schedule_is_nondecreasing_and_batches_in_range(self):
        trace = build_trace(TraceSpec(requests=500, rate=2000.0, seed=3, batch_low=2, batch_high=5))
        assert (np.diff(trace.times) >= 0).all()
        sizes = np.diff(trace.offsets)
        assert sizes.min() >= 2 and sizes.max() <= 5
        assert trace.lengths.min() >= trace.spec.length_low
        assert trace.lengths.max() < trace.spec.length_high

    def test_bursts_inject_extra_arrivals_at_their_instant(self):
        quiet = build_trace(TraceSpec(requests=50, rate=10.0, seed=5))
        bursty = build_trace(TraceSpec(requests=50, rate=10.0, seed=5, bursts=((0.0, 40),)))
        # 40 of the 50 arrivals collapse onto the burst instant.
        assert (bursty.times == 0.0).sum() == 40
        assert quiet.times[-1] > bursty.times[-1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"rate": 0.0},
            {"batch_low": 0},
            {"batch_low": 5, "batch_high": 2},
            {"length_low": 0.0},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TraceSpec(**kwargs)

    @pytest.mark.parametrize(
        ("burst", "rule"),
        [
            ((-1.0, 5), "instant must be non-negative"),
            (("x", 5), "instant must be a real number"),
            ((float("nan"), 5), "instant must be finite"),
            ((1.0, 2.5), "count must be an integer"),
            ((1.0, 0), "count must be >= 1"),
        ],
        ids=["negative-instant", "text-instant", "nan-instant", "fraction-count", "zero-count"],
    )
    def test_bad_bursts_rejected_at_construction(self, burst, rule):
        """These used to schedule requests at t < 0, return string times,
        drop the burst silently or fail inside numpy."""
        with pytest.raises(ValueError, match=rf"bursts\[1\] {rule}"):
            TraceSpec(requests=20, bursts=((0.5, 3), burst))

    def test_body_encodes_the_batch(self):
        import json

        trace = build_trace(TraceSpec(requests=3, seed=1))
        decoded = json.loads(trace.body(1))
        np.testing.assert_allclose(decoded["cloudlets"], trace.batch(1).cloudlet_length)


class TestSlo:
    def _report(self, p50=1.0, p99=5.0, errors=0, elapsed=1.0, n=100):
        lat = np.full(n, p50)
        lat[-5:] = p99  # enough tail mass to move the 99th percentile
        return LoadReport(
            latencies_ms=lat,
            offsets=np.arange(n, dtype=np.int64),
            placements=None,
            errors=errors,
            elapsed_s=elapsed,
            cloudlets=n,
        )

    def test_passing_report_has_no_violations(self):
        slo = SloSpec(p50_ms=10.0, p99_ms=50.0, min_throughput_rps=10.0)
        assert slo.violations(self._report()) == []

    def test_each_gate_fires(self):
        report = self._report(p50=20.0, p99=100.0, errors=5, elapsed=100.0)
        slo = SloSpec(p50_ms=10.0, p99_ms=50.0, min_throughput_rps=10.0)
        violations = slo.violations(report)
        assert len(violations) == 4
        assert any("p50" in v for v in violations)
        assert any("p99" in v for v in violations)
        assert any("error rate" in v for v in violations)
        assert any("throughput" in v for v in violations)


class TestReplayEndToEnd:
    def test_http_replay_is_bit_identical_and_meets_slo(self):
        spec = FleetSpec(name="edge", num_vms=64, scheduler="greedy-mct", seed=2)
        service = SchedulerService()
        service.add_fleet(spec)
        trace = build_trace(TraceSpec(requests=300, rate=3000.0, seed=8))
        with start_http_server(service) as handle:
            report = replay(trace, "edge", handle.host, handle.port)
        assert report.errors == 0
        assert report.requests == 300
        assert_bit_identical(spec, trace, report, chunk_sizes=(31, 65_536))
        # Generous local gate; the CI smoke applies the documented budget.
        assert SloSpec(p99_ms=5_000.0).violations(report) == []

    def test_max_throughput_mode(self):
        spec = FleetSpec(name="edge", num_vms=16, scheduler="basetest")
        service = SchedulerService()
        service.add_fleet(spec)
        trace = build_trace(TraceSpec(requests=100, rate=1.0, seed=4))
        with start_http_server(service) as handle:
            report = replay(trace, "edge", handle.host, handle.port, time_scale=0.0)
        # A rate-1.0 schedule would take ~100 s; time_scale=0 ignores it.
        assert report.elapsed_s < 30.0
        assert report.errors == 0
        assert_bit_identical(spec, trace, report)

    def test_inprocess_and_http_replays_place_identically(self):
        spec = FleetSpec(name="edge", num_vms=9, scheduler="greedy-mct", seed=6)
        trace = build_trace(TraceSpec(requests=60, rate=1e6, seed=9))

        inproc_service = SchedulerService()
        inproc_service.add_fleet(spec)
        inproc = replay_inprocess(trace, inproc_service, "edge")

        http_service = SchedulerService()
        http_service.add_fleet(spec)
        with start_http_server(http_service) as handle:
            # One connection serialises dispatch order == admission order.
            over_http = replay(
                trace, "edge", handle.host, handle.port,
                time_scale=0.0, max_connections=1,
            )
        assert over_http.errors == 0
        np.testing.assert_array_equal(over_http.offsets, inproc.offsets)
        for a, b in zip(over_http.placements, inproc.placements):
            np.testing.assert_array_equal(a, b)
