"""Incremental sweeps: cache granularity, warm determinism, parallel hits."""

from __future__ import annotations

import pytest

from repro.cache import ResultCache
from repro.experiments.runner import run_point, run_sweep
from repro.experiments.scenarios import SchedulerFactory
from repro.obs.telemetry import TELEMETRY
from repro.workloads.heterogeneous import heterogeneous_scenario


def factory(num_vms, num_cloudlets, seed):
    return heterogeneous_scenario(num_vms, num_cloudlets, num_datacenters=2, seed=seed)


SCHEDULERS = {
    "basetest": SchedulerFactory("basetest"),
    "random": SchedulerFactory("random"),
}

SWEEP = dict(
    scenario_factory=factory,
    scheduler_factories=SCHEDULERS,
    vm_counts=(4, 6),
    num_cloudlets=24,
    seeds=(0, 1),
    engine="fast",
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRunPointCache:
    def test_hit_replays_stored_result(self, cache):
        scenario = factory(4, 24, 0)
        from repro.schedulers import RoundRobinScheduler

        cold = run_point(scenario, RoundRobinScheduler(), seed=0, engine="fast", cache=cache)
        warm = run_point(scenario, RoundRobinScheduler(), seed=0, engine="fast", cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        # Byte-equal including the wall clock: the hit replays the cold
        # run's measured scheduling_time.
        assert warm.scheduling_time == cold.scheduling_time
        assert warm.makespan == cold.makespan

    def test_path_accepted_directly(self, tmp_path):
        scenario = factory(4, 24, 0)
        from repro.schedulers import RoundRobinScheduler

        run_point(scenario, RoundRobinScheduler(), seed=0, engine="fast", cache=tmp_path / "c")
        again = ResultCache(tmp_path / "c")
        assert len(again) == 1


class TestSerialSweepCache:
    def test_warm_records_byte_equal_to_cold(self, cache):
        cold = run_sweep(**SWEEP, cache=cache)
        warm = run_sweep(**SWEEP, cache=cache)
        # Full records, wall clock included — SweepRecord is frozen, so
        # == is a field-by-field comparison.
        assert warm == cold
        assert cache.misses == len(cold)
        assert cache.hits == len(cold)

    def test_cache_off_matches_cache_on(self, cache):
        plain = run_sweep(**SWEEP)
        cached = run_sweep(**SWEEP, cache=cache)
        for a, b in zip(plain, cached):
            assert a.scheduler == b.scheduler
            assert a.makespan == b.makespan
            assert a.total_cost == b.total_cost

    def test_extending_vm_counts_computes_only_new_cells(self, cache):
        run_sweep(**SWEEP, cache=cache)
        misses_before = cache.misses
        extended = {**SWEEP, "vm_counts": (4, 6, 8)}
        records = run_sweep(**extended, cache=cache)
        # Only the (8 VMs × 2 seeds × 2 schedulers) cells are new.
        assert cache.misses - misses_before == 4
        assert len(records) == 12

    def test_adding_seed_computes_only_new_cells(self, cache):
        run_sweep(**SWEEP, cache=cache)
        misses_before = cache.misses
        run_sweep(**{**SWEEP, "seeds": (0, 1, 2)}, cache=cache)
        assert cache.misses - misses_before == 4  # 2 vms × 1 seed × 2 scheds

    def test_adding_scheduler_computes_only_new_cells(self, cache):
        run_sweep(**SWEEP, cache=cache)
        misses_before = cache.misses
        more = {**SCHEDULERS, "greedy-mct": SchedulerFactory("greedy-mct")}
        records = run_sweep(**{**SWEEP, "scheduler_factories": more}, cache=cache)
        assert cache.misses - misses_before == 4  # 2 vms × 2 seeds × 1 sched
        assert len(records) == 12


class TestParallelSweepCache:
    def test_parallel_warm_after_serial_cold(self, cache):
        cold = run_sweep(**SWEEP, cache=cache)
        warm = run_sweep(**SWEEP, cache=cache, workers=2)
        assert warm == cold
        # Parent-side resolution: the warm pass probed every cell in the
        # parent and dispatched nothing, so the instance counts all hits.
        assert cache.hits == len(cold)

    def test_serial_warm_after_parallel_cold(self, cache):
        cold = run_sweep(**SWEEP, cache=cache, workers=2)
        assert len(cache) == len(cold)  # workers published every miss
        warm = run_sweep(**SWEEP, cache=cache)
        assert warm == cold

    def test_parallel_partial_warm(self, cache):
        run_sweep(**SWEEP, cache=cache)
        hits_before, misses_before = cache.hits, cache.misses
        extended = {**SWEEP, "vm_counts": (4, 6, 8)}
        records = run_sweep(**extended, cache=cache, workers=2)
        assert len(records) == 12
        assert cache.hits - hits_before == 8
        assert cache.misses - misses_before == 4
        # The computed cells were published; a rerun is all hits.
        again = run_sweep(**extended, cache=cache, workers=2)
        assert again == records

    def test_parallel_telemetry_counts_each_event_once(self, cache):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            run_sweep(**SWEEP, cache=cache, workers=2)
            counters = TELEMETRY.snapshot().counters
            # 8 misses counted parent-side at probe time; bytes_written
            # ships back from the workers that published the entries.
            assert counters["cache.misses"] == 8
            assert counters.get("cache.hits", 0) == 0
            assert counters["cache.bytes_written"] > 0
            TELEMETRY.reset()
            run_sweep(**SWEEP, cache=cache, workers=2)
            counters = TELEMETRY.snapshot().counters
            assert counters["cache.hits"] == 8
            assert counters.get("cache.misses", 0) == 0
            assert counters["cache.bytes_read"] > 0
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()


class TestZooSweepCache:
    """Optimizer-kernel zoo cells replay byte-equal from the cache.

    Differential round-trip: a cold sweep populates the cache, a warm
    sweep must replay it byte-for-byte (wall clock included — hits ship
    the cold run's measured scheduling_time), both serially and through
    the spawn-pool transport.
    """

    ZOO = {
        "gsa": SchedulerFactory("gsa", kwargs=(("num_agents", 4), ("max_iterations", 3))),
        "psogsa": SchedulerFactory("psogsa", kwargs=(("num_particles", 4), ("max_iterations", 3))),
        "cuckoo-sos": SchedulerFactory("cuckoo-sos", kwargs=(("ecosystem_size", 4), ("max_iterations", 2))),
    }

    SWEEP = dict(
        scenario_factory=factory,
        scheduler_factories=ZOO,
        vm_counts=(4, 6),
        num_cloudlets=20,
        seeds=(0, 1),
        engine="fast",
    )

    def test_serial_cold_warm_round_trip(self, cache):
        cold = run_sweep(**self.SWEEP, cache=cache)
        warm = run_sweep(**self.SWEEP, cache=cache)
        assert warm == cold
        assert cache.misses == len(cold) == 12
        assert cache.hits == len(cold)

    def test_parallel_cold_warm_round_trip(self, cache):
        cold = run_sweep(**self.SWEEP, cache=cache, workers=2)
        assert len(cache) == len(cold) == 12
        warm = run_sweep(**self.SWEEP, cache=cache, workers=2)
        assert warm == cold

    def test_parallel_warm_replays_serial_cold(self, cache):
        cold = run_sweep(**self.SWEEP, cache=cache)
        warm = run_sweep(**self.SWEEP, cache=cache, workers=2)
        assert warm == cold
