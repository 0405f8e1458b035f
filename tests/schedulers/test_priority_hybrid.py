"""Priority-cost scheduler and the future-work hybrid dispatcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.simulation import cloudlet_costs
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.hybrid import HybridObjective, HybridScheduler
from repro.schedulers.priority import PriorityCostScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


class TestPriorityCost:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityCostScheduler(load_weight=-1.0)
        with pytest.raises(ValueError):
            PriorityCostScheduler(bands=0)

    def test_assignment_valid(self, small_hetero):
        result = PriorityCostScheduler().schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)
        assert result.info["bands"] == 3

    def test_cheaper_than_round_robin(self, small_hetero):
        from repro.schedulers.round_robin import RoundRobinScheduler

        pri = PriorityCostScheduler().schedule(ctx(small_hetero))
        rr = RoundRobinScheduler().schedule(ctx(small_hetero))
        assert cloudlet_costs(small_hetero.arrays(), pri.assignment).sum() < (
            cloudlet_costs(small_hetero.arrays(), rr.assignment).sum()
        )

    def test_single_band(self, small_hetero):
        result = PriorityCostScheduler(bands=1).schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)


class TestHybridDispatch:
    def test_explicit_objectives(self, small_hetero):
        context = ctx(small_hetero)
        assert (
            HybridScheduler(objective=HybridObjective.PERFORMANCE)
            .choose_module(context)
            .name
            == "antcolony"
        )
        assert (
            HybridScheduler(objective="cost").choose_module(context).name == "honeybee"
        )
        assert (
            HybridScheduler(objective="balance").choose_module(context).name == "rbs"
        )

    def test_auto_homogeneous_picks_basetest(self, small_homog):
        context = ctx(small_homog)
        assert HybridScheduler().choose_module(context).name == "basetest"

    def test_auto_heterogeneous_with_cost_spread_picks_hbo(self, small_hetero):
        # Table VII ranges give a composite spread well above 2x.
        context = ctx(small_hetero)
        assert HybridScheduler().choose_module(context).name == "honeybee"

    def test_auto_heterogeneous_flat_prices_picks_aco(self):
        scenario = heterogeneous_scenario(num_vms=8, num_cloudlets=30, seed=3)
        # Force identical prices across datacenters.
        import dataclasses

        dc0 = scenario.datacenters[0]
        scenario = dataclasses.replace(
            scenario, datacenters=tuple(dc0 for _ in scenario.datacenters)
        )
        context = ctx(scenario)
        assert HybridScheduler().choose_module(context).name == "antcolony"

    def test_schedule_labels_result_as_hybrid(self, small_hetero):
        result = HybridScheduler(objective="cost").schedule(ctx(small_hetero))
        assert result.scheduler_name == "hybrid"
        assert result.info["delegated_to"] == "honeybee"
        assert result.info["objective"] == "cost"
        validate_assignment(result.assignment, 60, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridScheduler(heterogeneity_threshold=-0.1)
        with pytest.raises(ValueError):
            HybridScheduler(cost_spread_threshold=0.5)
        with pytest.raises(ValueError):
            HybridScheduler(objective="profit")

    def test_injected_modules_are_used(self, small_hetero):
        from repro.schedulers.aco import AntColonyScheduler

        custom = AntColonyScheduler(num_ants=2, max_iterations=1)
        hybrid = HybridScheduler(objective="performance", aco=custom)
        assert hybrid.choose_module(ctx(small_hetero)) is custom


class TestRegistry:
    def test_all_registered_schedulers_instantiate_and_run(self, small_hetero):
        from repro.schedulers import SCHEDULER_REGISTRY, make_scheduler

        context_seed = 0
        for name in SCHEDULER_REGISTRY:
            sched = make_scheduler(name)
            result = sched.schedule_checked(ctx(small_hetero, context_seed))
            assert result.scheduler_name == name

    def test_make_scheduler_unknown_name(self):
        from repro.schedulers import make_scheduler

        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("quantum-annealer")

    def test_make_scheduler_forwards_kwargs(self):
        from repro.schedulers import make_scheduler

        sched = make_scheduler("antcolony", num_ants=3)
        assert sched.num_ants == 3

    def test_paper_schedulers_subset_of_registry(self):
        from repro.schedulers import PAPER_SCHEDULERS, SCHEDULER_REGISTRY

        assert set(PAPER_SCHEDULERS) <= set(SCHEDULER_REGISTRY)
