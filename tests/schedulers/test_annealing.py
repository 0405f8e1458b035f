"""Simulated annealing scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedulers.annealing import SimulatedAnnealingScheduler
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.round_robin import RoundRobinScheduler
from tests.schedulers.oracles import estimate_makespan


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"initial_temperature": 0.0},
            {"cooling": 1.0},
            {"cooling": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulatedAnnealingScheduler(**kwargs)


class TestBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = SimulatedAnnealingScheduler(iterations=500).schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)
        assert result.info["accepted_moves"] >= 0

    def test_improves_on_round_robin(self, small_hetero):
        context = ctx(small_hetero)
        arr = context.arrays
        sa = SimulatedAnnealingScheduler(iterations=3000).schedule(context)
        rr = RoundRobinScheduler().schedule(ctx(small_hetero))
        mk_sa = estimate_makespan(sa.assignment, arr.cloudlet_length, arr.vm_mips)
        mk_rr = estimate_makespan(rr.assignment, arr.cloudlet_length, arr.vm_mips)
        assert mk_sa < mk_rr

    def test_internal_estimate_matches_recomputation(self, small_hetero):
        context = ctx(small_hetero)
        arr = context.arrays
        result = SimulatedAnnealingScheduler(iterations=1000).schedule(context)
        recomputed = estimate_makespan(
            result.assignment, arr.cloudlet_length, arr.vm_mips
        )
        assert result.info["best_makespan_estimate"] == pytest.approx(recomputed)

    def test_more_iterations_never_worse(self, small_hetero):
        short = SimulatedAnnealingScheduler(iterations=50).schedule(ctx(small_hetero))
        long = SimulatedAnnealingScheduler(iterations=5000).schedule(ctx(small_hetero))
        assert (
            long.info["best_makespan_estimate"]
            <= short.info["best_makespan_estimate"] * 1.001
        )

    def test_deterministic(self, small_hetero):
        a = SimulatedAnnealingScheduler(iterations=300).schedule(ctx(small_hetero, 4))
        b = SimulatedAnnealingScheduler(iterations=300).schedule(ctx(small_hetero, 4))
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_registered(self):
        from repro.schedulers import SCHEDULER_REGISTRY

        assert "annealing" in SCHEDULER_REGISTRY
