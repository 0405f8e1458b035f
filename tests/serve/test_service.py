"""Service-core unit tests plus the offline differential pin.

The differential classes are the tentpole contract: every placement the
live service hands out must be reproducible by an offline
``StreamingSimulation`` over the same cloudlets in admission order, bit
for bit, for any chunk geometry and shard count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cloud.fast import StreamingSimulation
from repro.obs.telemetry import TELEMETRY
from repro.schedulers.streaming import make_streaming_scheduler
from repro.serve import (
    SERVABLE_SCHEDULERS,
    FleetSpec,
    SchedulerService,
    ServeError,
    concat_batches,
    offline_assignments,
    parse_submission,
)
from repro.serve.loadgen import TraceSpec, build_trace, replay_inprocess, assert_bit_identical
from repro.serve.protocol import decode_json


def make_service(**overrides):
    spec = FleetSpec(
        name=overrides.pop("name", "edge"),
        num_vms=overrides.pop("num_vms", 25),
        **overrides,
    )
    service = SchedulerService()
    service.add_fleet(spec)
    return spec, service


class TestFleetSpec:
    def test_servable_set_is_the_online_admissible_pair(self):
        assert SERVABLE_SCHEDULERS == ("basetest", "greedy-mct")

    @pytest.mark.parametrize("scheduler", ["honeybee", "rbs"])
    def test_offline_only_schedulers_rejected(self, scheduler):
        with pytest.raises(ServeError) as excinfo:
            FleetSpec(name="edge", scheduler=scheduler)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unservable-scheduler"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            FleetSpec(name="edge", scheduler="aco")
        assert excinfo.value.code == "unknown-scheduler"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a/b"},
            {"name": "edge", "num_vms": 0},
            {"name": "edge", "family": "hybrid"},
        ],
    )
    def test_bad_fleet_configs_rejected(self, kwargs):
        with pytest.raises(ServeError):
            FleetSpec(**kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "field"),
        [
            ({"num_vms": 2.5}, "num_vms"),
            ({"num_vms": float("nan")}, "num_vms"),
            ({"num_vms": True}, "num_vms"),
            ({"num_datacenters": 2.5}, "num_datacenters"),
            ({"num_datacenters": 101}, "num_datacenters"),
            ({"seed": -1}, "seed"),
            ({"seed": 0.5}, "seed"),
        ],
        ids=[
            "vms-fraction", "vms-nan", "vms-bool", "dcs-fraction",
            "dcs-over-vms", "seed-negative", "seed-fraction",
        ],
    )
    def test_bad_numbers_are_bad_fleet(self, kwargs, field):
        """These used to fail later, in numpy or as "more datacenters than
        VMs" (``num_vms=True``), instead of as a 400 naming the field."""
        with pytest.raises(ServeError, match=field) as excinfo:
            FleetSpec(name="edge", **kwargs)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-fleet")

    @pytest.mark.parametrize(
        ("family", "num_vms"),
        [("homogeneous", 1), ("heterogeneous", 3)],
    )
    def test_too_few_vms_for_the_family_default_is_bad_fleet(self, family, num_vms):
        """The family's default datacenter count (2 or 4) is checked at
        construction; it used to fail later, in the stream builder, as a
        plain ``ValueError``."""
        with pytest.raises(ServeError, match="num_datacenters") as excinfo:
            FleetSpec(name="edge", num_vms=num_vms, family=family)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-fleet")
        # An explicit count that fits is accepted and serves.
        spec = FleetSpec(name="edge", num_vms=num_vms, family=family, num_datacenters=1)
        assert spec.fleet_stream().num_datacenters == 1

    def test_fleet_stream_never_uses_constant_cloudlets(self):
        # ConstantCloudlets would trip greedy's cyclic fast path, which a
        # live fleet cannot honour (future submissions are unconstrained).
        from repro.workloads.streaming import MaterializedCloudlets

        stream = FleetSpec(name="edge", num_vms=4).fleet_stream()
        assert isinstance(stream.cloudlets, MaterializedCloudlets)


class TestSubmission:
    def test_placements_within_fleet_and_offsets_advance(self):
        spec, service = make_service()
        first = service.submit("edge", {"cloudlets": [1000.0, 2000.0]})
        second = service.submit("edge", {"count": 3, "length": 500.0})
        assert first.offset == 0 and second.offset == 2
        assert first.size == 2 and second.size == 3
        for placed in (first, second):
            assert placed.placements.dtype == np.int64
            assert (placed.placements >= 0).all()
            assert (placed.placements < spec.num_vms).all()

    def test_basetest_batch_wraps_the_fleet(self):
        # 17 cloudlets from offset 490 on a 500-VM fleet: the last 10 VMs,
        # then the first 7.
        _, service = make_service(num_vms=500, scheduler="basetest")
        service.submit("edge", {"count": 490, "length": 1000.0})
        placed = service.submit("edge", {"count": 17, "length": 1000.0})
        assert placed.offset == 490
        assert placed.placements.tolist() == [*range(490, 500), *range(7)]

    def test_unknown_fleet_is_a_404(self):
        _, service = make_service()
        with pytest.raises(ServeError) as excinfo:
            service.submit("nope", {"count": 1, "length": 1.0})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-fleet"

    def test_duplicate_fleet_is_a_409(self):
        spec, service = make_service()
        with pytest.raises(ServeError) as excinfo:
            service.add_fleet(spec)
        assert excinfo.value.status == 409

    def test_backlog_fold_matches_submitted_work(self):
        """The live backlog is the offline engine's per-VM fold, byte for byte.

        A heterogeneous fleet makes ``length / mips`` inexact, so any
        other fold expression (e.g. ``length * (1 / mips)``) shows up.
        """
        spec, service = make_service(
            scheduler="basetest", num_vms=7, family="heterogeneous", seed=3
        )
        lengths = np.random.default_rng(5).uniform(1000.0, 20000.0, size=50)
        for part in np.array_split(lengths, 4):
            service.submit("edge", {"cloudlets": part.tolist()})
        fleet = service.fleet("edge")
        offline = StreamingSimulation(
            spec.fleet_stream().with_cloudlets(lengths, chunk_size=16),
            make_streaming_scheduler(spec.scheduler),
            seed=spec.seed,
        ).run()
        assert fleet.backlog.tobytes() == offline.vm_finish_times.tobytes()
        assert fleet.counts.sum() == 50

    def test_telemetry_counters_and_gauges(self):
        _, service = make_service()
        with obs.enabled(True):
            before = TELEMETRY.snapshot()
            service.submit("edge", {"count": 4, "length": 100.0})
            service.submit("edge", {"count": 2, "length": 100.0})
            for placed in range(2):
                service.fleet("edge").observe_latency(0.001)
            stats = service.stats()["fleets"][0]
            diff = TELEMETRY.snapshot().diff(before).to_dict()
        assert diff["counters"]["serve.requests"] == 2
        assert diff["counters"]["serve.batch_size"] == 6
        assert "serve.edge.latency_p50_ms" in diff["gauges"]
        assert "serve.edge.latency_p99_ms" in diff["gauges"]
        assert stats["latency_p50_ms"] > 0

    def test_manifest_provenance(self):
        spec, service = make_service(seed=9)
        manifest = service.fleet("edge").manifest
        assert manifest.engine == "serve"
        assert manifest.seed == 9
        assert manifest.scenario["name"] == "serve-edge"
        assert manifest.scheduler["name"] == "greedy-mct"
        assert manifest.extra["fleet"] == "edge"
        # Same spec, same fingerprint — a fresh process reproduces it.
        _, other = make_service(seed=9)
        assert (
            other.fleet("edge").manifest.fingerprint() == manifest.fingerprint()
        )

    def test_stats_reports_estimated_makespan_for_greedy(self):
        _, service = make_service(scheduler="greedy-mct")
        service.submit("edge", {"count": 10, "length": 1000.0})
        assert service.stats()["fleets"][0]["estimated_makespan"] > 0


@pytest.mark.parametrize("scheduler", SERVABLE_SCHEDULERS)
@pytest.mark.parametrize("family", ["homogeneous", "heterogeneous"])
class TestDifferential:
    """Live placements == offline StreamingSimulation, bit for bit."""

    def _run(self, scheduler, family, seed=0, requests=120):
        spec = FleetSpec(
            name="diff", num_vms=17, scheduler=scheduler, family=family, seed=seed
        )
        service = SchedulerService()
        service.add_fleet(spec)
        trace = build_trace(
            TraceSpec(requests=requests, rate=1e9, seed=seed + 1, batch_high=9)
        )
        report = replay_inprocess(trace, service, "diff")
        return spec, trace, report

    def test_bit_identical_across_chunk_sizes(self, scheduler, family):
        spec, trace, report = self._run(scheduler, family)
        # Chunk sizes straddle the submission sizes: per-cloudlet chunks,
        # misaligned primes, and one chunk swallowing everything.
        assert_bit_identical(spec, trace, report, chunk_sizes=(1, 7, 64, 100_000))

    def test_bit_identical_under_sharded_offline_replay(self, scheduler, family):
        spec, trace, report = self._run(scheduler, family)
        admitted = concat_batches([trace.batch(i) for i in np.argsort(report.offsets)])
        live = np.concatenate(
            [report.placements[int(i)] for i in np.argsort(report.offsets)]
        )
        for shards in (2, 3):
            offline = offline_assignments(spec, admitted, chunk_size=32, shards=shards)
            np.testing.assert_array_equal(offline, live)

    def test_single_cloudlet_submissions_match_batched(self, scheduler, family):
        # The same cloudlets submitted one at a time land identically:
        # admission order, not batch geometry, defines the outcome.
        spec, trace, report = self._run(scheduler, family, requests=40)
        single = SchedulerService()
        single.add_fleet(spec)
        placements = []
        for i in range(trace.num_requests):
            batch = trace.batch(i)
            for j in range(batch.size):
                placed = single.submit(
                    "diff", {"cloudlets": [float(batch.cloudlet_length[j])]}
                )
                placements.append(placed.placements)
        np.testing.assert_array_equal(
            np.concatenate(placements), np.concatenate(report.placements)
        )


class TestParseSubmission:
    def test_explicit_and_shorthand_agree(self):
        explicit = parse_submission({"cloudlets": [{"length": 5.0}] * 3})
        shorthand = parse_submission({"count": 3, "length": 5.0})
        np.testing.assert_array_equal(
            explicit.cloudlet_length, shorthand.cloudlet_length
        )

    @pytest.mark.parametrize(
        "payload,code",
        [
            ([1, 2], "bad-request"),
            ({"cloudlets": []}, "empty-batch"),
            ({"cloudlets": "nope"}, "bad-request"),
            ({"cloudlets": [0.0]}, "bad-request"),
            ({"cloudlets": [-3.0]}, "bad-request"),
            ({"cloudlets": [float("nan")]}, "bad-request"),
            ({"cloudlets": [{"length": 1.0, "pes": 2}]}, "bad-request"),
            ({"cloudlets": [{"length": 1.0, "file_size": -1}]}, "bad-request"),
            ({"count": 0, "length": 1.0}, "bad-request"),
            ({"count": 2.5, "length": 1.0}, "bad-request"),
            ({"count": 1}, "bad-request"),
            ({"count": 1, "length": 1.0, "cloudlets": []}, "bad-request"),
            ({"count": 10**9, "length": 1.0}, "batch-too-large"),
            # JSON integers past float range: float() would overflow.
            ({"cloudlets": [10**400]}, "bad-request"),
            ({"cloudlets": [-(10**400)]}, "bad-request"),
            ({"cloudlets": [{"length": 10**400}]}, "bad-request"),
            ({"cloudlets": [{"length": 1.0, "file_size": 10**400}]}, "bad-request"),
            ({"cloudlets": [{"length": 1.0, "output_size": 10**400}]}, "bad-request"),
            ({"count": 1, "length": 10**400}, "bad-request"),
            ({"count": 1, "length": 1.0, "file_size": 10**400}, "bad-request"),
        ],
    )
    def test_malformed_submissions(self, payload, code):
        with pytest.raises(ServeError) as excinfo:
            parse_submission(payload)
        assert excinfo.value.code == code
        assert 400 <= excinfo.value.status < 500

    def test_oversized_integers_decode_and_validate(self):
        # Within the int-conversion digit limit, the literal decodes and
        # the length check turns it away like any non-finite value.
        big = decode_json(b'{"cloudlets": [1' + b"0" * 400 + b"]}")
        with pytest.raises(ServeError) as excinfo:
            parse_submission(big)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-request")
        assert "finite" in excinfo.value.message

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"\xff\xfe",
            # Longer than Python's 4,300-digit int-conversion limit.
            b'{"cloudlets": [1' + b"0" * 5000 + b"]}",
            # Nested past the decoder's recursion limit.
            b"[" * 100_000,
        ],
        ids=["malformed", "not-utf8", "int-digit-limit", "too-deep"],
    )
    def test_undecodable_bodies_are_bad_json(self, body):
        with pytest.raises(ServeError) as excinfo:
            decode_json(body)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-json")

    def test_service_survives_rejected_submissions(self):
        spec, service = make_service()
        with pytest.raises(ServeError):
            service.submit("edge", {"cloudlets": []})
        placed = service.submit("edge", {"count": 1, "length": 10.0})
        assert placed.offset == 0  # the rejected batch consumed nothing
