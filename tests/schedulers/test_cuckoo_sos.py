"""Cuckoo-assisted SOS: the operator's float64 ecosystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedulers.base import SchedulingContext
from repro.schedulers.cuckoo_sos import CuckooSosScheduler, _CuckooSosOperator
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario

FAMILIES = {"hetero": heterogeneous_scenario, "homog": homogeneous_scenario}


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"abandon_fraction": 0.0}, {"ecosystem_size": 2}],
    ids=["default", "no-abandon", "two-organisms"],
)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ecosystem_holds_vm_indices_scored_by_its_fitness(family, kwargs):
    """The phases compute on the float64 ecosystem in place, so after
    every step it must still hold whole VM indices, and acceptance and
    nest abandonment must leave each organism's stored fitness its own."""
    for seed in (0, 5, 2016):
        scenario = FAMILIES[family](9, 70, seed=seed)
        context = SchedulingContext.from_scenario(scenario, seed=seed)
        operator = _CuckooSosOperator(CuckooSosScheduler(**kwargs), context)
        operator.initialize(context.rng)
        changed = 0
        for iteration in range(12):
            before = operator.population.copy()
            operator.step(iteration, context.rng, None, np.inf)
            x = operator.population
            changed += int((x != before).any())
            assert (x == np.rint(x)).all() and 0 <= x.min() and x.max() < 9, iteration
            assert (
                operator.kernel.batch_makespans(x).tobytes() == operator.fitness.tobytes()
            ), iteration
        assert changed > 0, seed
