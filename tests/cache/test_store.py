"""Result cache: keys, round trips, durability, maintenance."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro._version import __version__
from repro.cache import (
    ENTRY_FORMAT_VERSION,
    ResultCache,
    cache_key_manifest,
    scenario_digest,
)
from repro.experiments.runner import run_point
from repro.obs.manifest import RunManifest
from repro.schedulers import RoundRobinScheduler
from repro.schedulers.random_assign import RandomScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario


@pytest.fixture
def scenario():
    return heterogeneous_scenario(4, 16, seed=0)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _store_one(cache, scenario, scheduler=None, seed=0, engine="fast"):
    """Compute one result and publish it; returns (key, result)."""
    scheduler = scheduler or RoundRobinScheduler()
    manifest = cache_key_manifest(scenario, scheduler, seed, engine)
    key = manifest.fingerprint()
    result = run_point(scenario, scheduler, seed=seed, engine=engine)
    assert cache.put(key, result, manifest)
    return key, result


class TestKeys:
    def test_key_is_sha256_hex(self, cache, scenario):
        key = cache.key_for(scenario, RoundRobinScheduler(), 0, "fast")
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_key_stable_across_instances(self, cache, scenario):
        a = cache.key_for(scenario, RoundRobinScheduler(), 0, "fast")
        b = cache.key_for(scenario, RoundRobinScheduler(), 0, "fast")
        assert a == b

    def test_key_varies_with_inputs(self, cache, scenario):
        base = cache.key_for(scenario, RoundRobinScheduler(), 0, "fast")
        assert cache.key_for(scenario, RoundRobinScheduler(), 1, "fast") != base
        assert cache.key_for(scenario, RoundRobinScheduler(), 0, "des") != base
        assert cache.key_for(scenario, RandomScheduler(), 0, "fast") != base

    def test_key_sensitive_to_scenario_content(self, cache):
        # Same name/sizes/seed summary, different workload content.
        a = heterogeneous_scenario(4, 16, seed=0)
        b = heterogeneous_scenario(4, 16, seed=0)
        import dataclasses

        cloudlets = (
            dataclasses.replace(b.cloudlets[0], length=b.cloudlets[0].length * 2),
        ) + b.cloudlets[1:]
        b = dataclasses.replace(b, cloudlets=cloudlets)
        assert scenario_digest(a) != scenario_digest(b)
        assert cache.key_for(a, RoundRobinScheduler(), 0, "fast") != cache.key_for(
            b, RoundRobinScheduler(), 0, "fast"
        )

    def test_scenario_digest_memoized(self, scenario):
        assert scenario_digest(scenario) == scenario_digest(scenario)
        assert getattr(scenario, "_digest_cache", None) is not None

    def test_key_ignores_host_and_time(self, scenario):
        m = cache_key_manifest(scenario, RoundRobinScheduler(), 0, "fast")
        moved = RunManifest.from_dict(
            {**m.to_dict(), "hostname": "elsewhere", "captured_at": "2020-01-01"}
        )
        assert moved.fingerprint() == m.fingerprint()

    def test_malformed_key_rejected(self, cache):
        with pytest.raises(ValueError, match="malformed"):
            cache.entry_dir("not-hex!")


class TestRoundTrip:
    def test_miss_then_hit(self, cache, scenario):
        key, result = _store_one(cache, scenario)
        assert cache.misses == 0
        again = cache.get(key)
        assert again is not None
        assert (cache.hits, cache.misses) == (1, 0)
        assert again.scheduler_name == result.scheduler_name
        assert again.scheduling_time == result.scheduling_time
        assert again.makespan == result.makespan
        np.testing.assert_array_equal(again.assignment, result.assignment)
        np.testing.assert_array_equal(again.finish_times, result.finish_times)
        np.testing.assert_array_equal(again.costs, result.costs)

    def test_get_on_empty_cache_is_miss(self, cache, scenario):
        assert cache.get(cache.key_for(scenario, RoundRobinScheduler(), 0, "fast")) is None
        assert cache.misses == 1

    def test_cached_bit_identical_to_recompute(self, cache, scenario):
        key, _ = _store_one(cache, scenario)
        cached = cache.get(key)
        fresh = run_point(scenario, RoundRobinScheduler(), seed=0, engine="fast")
        # Everything except wall-clock fields matches a recomputation
        # exactly; the wall clock replays the *cold* run's measurement.
        assert cached.makespan == fresh.makespan
        assert cached.time_imbalance == fresh.time_imbalance
        assert cached.total_cost == fresh.total_cost
        np.testing.assert_array_equal(cached.assignment, fresh.assignment)
        np.testing.assert_array_equal(cached.start_times, fresh.start_times)
        np.testing.assert_array_equal(cached.finish_times, fresh.finish_times)

    def test_len_and_iter_keys(self, cache, scenario):
        assert len(cache) == 0
        key, _ = _store_one(cache, scenario)
        assert list(cache.iter_keys()) == [key]
        assert len(cache) == 1

    def test_coerce(self, cache, tmp_path):
        assert ResultCache.coerce(None) is None
        assert ResultCache.coerce(cache) is cache
        coerced = ResultCache.coerce(tmp_path / "other")
        assert isinstance(coerced, ResultCache)


class TestCorruptionTolerance:
    def test_truncated_npz_is_miss_and_rewritable(self, cache, scenario):
        key, result = _store_one(cache, scenario)
        arrays = cache.entry_dir(key) / "arrays.npz"
        arrays.write_bytes(arrays.read_bytes()[:20])
        assert cache.get(key) is None
        assert cache.misses == 1
        # The recompute path replaces the damaged entry in place.
        assert cache.put(key, result)
        assert cache.get(key) is not None

    def test_unparsable_meta_is_miss(self, cache, scenario):
        key, _ = _store_one(cache, scenario)
        (cache.entry_dir(key) / "meta.json").write_text("{not json")
        assert cache.get(key) is None

    def test_missing_array_member_is_miss(self, cache, scenario):
        key, result = _store_one(cache, scenario)
        np.savez_compressed(
            cache.entry_dir(key) / "arrays.npz", assignment=result.assignment
        )
        assert cache.get(key) is None

    def test_foreign_entry_format_is_miss(self, cache, scenario):
        key, _ = _store_one(cache, scenario)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["entry_format"] = ENTRY_FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        assert cache.get(key) is None

    def test_meta_missing_a_field_is_miss_problem_and_prune(self, cache, scenario):
        # Parses, right format and version, but a scalar is gone: every
        # reader must agree the entry is damaged.
        key, _ = _store_one(cache, scenario)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["makespan"]
        meta_path.write_text(json.dumps(meta))
        assert cache.get(key) is None
        assert cache.verify() == [f"{key}: meta.json lacks 'makespan'"]
        assert cache.prune().removed == 1
        assert len(cache) == 0

    def test_package_version_bump_invalidates(self, cache, scenario):
        # The version is part of the fingerprint, so a bump changes every
        # key; the read path double-checks anyway for hand-moved entries.
        key, _ = _store_one(cache, scenario)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["package_version"] == __version__
        meta["package_version"] = "0.0.0-older"
        meta_path.write_text(json.dumps(meta))
        assert cache.get(key) is None

    def test_version_bump_changes_fingerprint(self, cache, scenario):
        m = cache_key_manifest(scenario, RoundRobinScheduler(), 0, "fast")
        bumped = RunManifest.from_dict({**m.to_dict(), "package_version": "99.0.0"})
        assert bumped.fingerprint() != m.fingerprint()


class TestConcurrency:
    def test_replacing_put_keeps_entry_complete(self, cache, scenario):
        key, result = _store_one(cache, scenario)
        assert cache.put(key, result)  # second publish replaces atomically
        entry = cache.entry_dir(key)
        assert sorted(p.name for p in entry.iterdir()) == ["arrays.npz", "meta.json"]
        assert cache.get(key) is not None

    def test_concurrent_writers_never_interleave(self, cache, scenario):
        # Hammer the same key from several threads while readers poll;
        # atomic rename publication means a reader sees either nothing or
        # a complete, loadable entry — never a partial one.
        manifest = cache_key_manifest(scenario, RoundRobinScheduler(), 0, "fast")
        key = manifest.fingerprint()
        result = run_point(scenario, RoundRobinScheduler(), seed=0, engine="fast")
        stop = threading.Event()
        bad: list[str] = []

        def writer():
            while not stop.is_set():
                cache.put(key, result, manifest)

        def reader():
            mine = ResultCache(cache.root)  # independent counters
            while not stop.is_set():
                got = mine.get(key)
                if got is not None and got.assignment.shape != result.assignment.shape:
                    bad.append("partial entry observed")

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert bad == []
        assert cache.get(key) is not None

    def test_no_staging_leftovers_after_put(self, cache, scenario):
        _store_one(cache, scenario)
        tmp = cache.root / "tmp"
        assert not tmp.exists() or list(tmp.iterdir()) == []


class TestMaintenance:
    def test_stats(self, cache, scenario):
        _store_one(cache, scenario)
        _store_one(cache, scenario, seed=1)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.by_version == {__version__: 2}
        assert stats.to_dict()["entries"] == 2

    def test_verify_clean(self, cache, scenario):
        _store_one(cache, scenario)
        assert cache.verify() == []

    def test_verify_flags_mismatched_fingerprint(self, cache, scenario):
        key, _ = _store_one(cache, scenario)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["manifest"]["seed"] = 12345  # tamper: key no longer derivable
        meta_path.write_text(json.dumps(meta))
        problems = cache.verify()
        assert len(problems) == 1
        assert "fingerprints to" in problems[0]

    def test_verify_flags_misfiled_entry(self, cache, scenario):
        key, _ = _store_one(cache, scenario)
        meta_path = cache.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["key"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        assert any("mismatches" in p for p in cache.verify())

    def test_prune_collects_corrupt_and_foreign(self, cache, scenario):
        good, _ = _store_one(cache, scenario)
        bad, _ = _store_one(cache, scenario, seed=1)
        (cache.entry_dir(bad) / "meta.json").write_text("{broken")
        foreign, _ = _store_one(cache, scenario, seed=2)
        meta_path = cache.entry_dir(foreign) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["package_version"] = "0.0.1"
        meta_path.write_text(json.dumps(meta))
        report = cache.prune()
        assert report.removed == 2
        assert report.freed_bytes > 0
        assert list(cache.iter_keys()) == [good] or len(cache) == 1

    def test_prune_max_bytes_evicts_oldest(self, cache, scenario):
        import os

        keys = [
            _store_one(cache, scenario, seed=s)[0] for s in range(3)
        ]
        # Make the first entry unambiguously the oldest.
        for i, key in enumerate(keys):
            os.utime(cache.entry_dir(key), (1000.0 + i, 1000.0 + i))
        report = cache.prune(max_bytes=2 * cache.bytes_written // 3)
        assert report.removed >= 1
        assert cache.get(keys[0]) is None  # oldest evicted first
        assert cache.get(keys[-1]) is not None  # newest survives

    def test_prune_sweeps_stale_staging(self, cache, scenario):
        _store_one(cache, scenario)
        stale = cache.root / "tmp" / "deadbeef.1234.0"
        stale.mkdir(parents=True)
        (stale / "meta.json").write_text("{}")
        cache.prune()
        assert not stale.exists()


class TestTelemetry:
    def test_counters_emitted_when_enabled(self, cache, scenario):
        from repro.obs.telemetry import TELEMETRY

        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            key, _ = _store_one(cache, scenario)
            cache.get(key)
            cache.get("f" * 64)
            counters = TELEMETRY.snapshot().counters
            assert counters["cache.hits"] == 1
            assert counters["cache.misses"] == 1
            assert counters["cache.bytes_written"] > 0
            assert counters["cache.bytes_read"] > 0
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
