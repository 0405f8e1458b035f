"""One code path per sweep cell: scenario lifetime and progress timing."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cache import ResultCache
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import SchedulerFactory
from repro.workloads.heterogeneous import heterogeneous_scenario

SCHEDULERS = {
    "basetest": SchedulerFactory("basetest"),
    "random": SchedulerFactory("random"),
}
CELLS = [(4, 0), (4, 1), (6, 0), (6, 1)]


class TrackingFactory:
    """Scenario factory that records each build and the scenarios still alive."""

    def __init__(self) -> None:
        self.built: list[tuple[int, int]] = []
        self.live = weakref.WeakSet()
        self.most_alive_at_build = 0

    def __call__(self, num_vms, num_cloudlets, seed):
        gc.collect()
        self.most_alive_at_build = max(self.most_alive_at_build, len(self.live))
        scenario = heterogeneous_scenario(num_vms, num_cloudlets, num_datacenters=2, seed=seed)
        self.live.add(scenario)
        self.built.append((num_vms, seed))
        return scenario


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_serial_sweep_builds_each_scenario_once_and_holds_one(tmp_path, cached):
    cache = ResultCache(tmp_path / "cache") if cached else None
    for _ in range(2 if cached else 1):  # cold, then all hits
        factory = TrackingFactory()
        lines: list[tuple[int, str]] = []
        records = run_sweep(
            scenario_factory=factory,
            scheduler_factories=SCHEDULERS,
            vm_counts=(4, 6),
            num_cloudlets=24,
            seeds=(0, 1),
            engine="fast",
            cache=cache,
            progress=lambda line: lines.append((len(factory.built), line)),
        )
        assert factory.built == CELLS
        assert factory.most_alive_at_build == 0
        # Each cell's lines go out as the cell finishes, before the next
        # cell's scenario is built, in grid order.
        assert [built for built, _ in lines] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert [(r.num_vms, r.seed) for r in records] == [
            cell for cell in CELLS for _ in SCHEDULERS
        ]
    if cached:
        assert (cache.hits, cache.misses) == (8, 8)
