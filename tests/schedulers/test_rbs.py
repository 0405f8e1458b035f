"""Random Biased Sampling scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.rbs import RandomBiasedSamplingScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


class TestValidation:
    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError, match="num_groups"):
            RandomBiasedSamplingScheduler(num_groups=0)


class TestBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)

    def test_default_group_count(self, small_hetero):
        result = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero))
        assert result.info["num_groups"] == 4

    def test_groups_clipped_to_vm_count(self):
        scenario = heterogeneous_scenario(
            num_vms=2, num_cloudlets=10, num_datacenters=2, seed=0
        )
        result = RandomBiasedSamplingScheduler(num_groups=10).schedule(ctx(scenario))
        assert result.info["num_groups"] == 2

    def test_single_group_uses_all_vms_cyclically(self):
        scenario = heterogeneous_scenario(
            num_vms=4, num_cloudlets=16, num_datacenters=2, seed=0
        )
        result = RandomBiasedSamplingScheduler(num_groups=1).schedule(ctx(scenario))
        counts = np.bincount(result.assignment, minlength=4)
        np.testing.assert_array_equal(counts, [4, 4, 4, 4])

    def test_deterministic_per_seed(self, small_hetero):
        a = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero, 3)).assignment
        b = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero, 3)).assignment
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_assignment(self, small_hetero):
        a = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero, 1)).assignment
        b = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero, 2)).assignment
        assert not np.array_equal(a, b)

    def test_schedule_leaves_rng_after_one_omega_and_one_start_draw(self, small_hetero):
        """The caller's generator ends where the monolithic draw leaves it.

        Per-wave batch callers (``BatchAdapter``, failure-aware
        rescheduling) share one generator across calls, so the next call's
        draws depend on exactly ``integers(1, q+1, n); integers(0, q, n)``
        having been consumed.
        """
        context = ctx(small_hetero, 3)
        RandomBiasedSamplingScheduler().schedule(context)
        reference = ctx(small_hetero, 3).rng
        q, n = 4, small_hetero.num_cloudlets
        reference.integers(1, q + 1, n)
        reference.integers(0, q, n)
        assert context.rng.bit_generator.state == reference.bit_generator.state

    def test_walk_stats_reported(self, small_hetero):
        result = RandomBiasedSamplingScheduler().schedule(ctx(small_hetero))
        assert result.info["mean_walk_length"] >= 0.0

    def test_load_is_roughly_balanced(self):
        # NID replenishment bounds per-VM counts: every round hands each VM
        # at most one task, so counts differ by at most the round spill.
        scenario = heterogeneous_scenario(
            num_vms=10, num_cloudlets=200, num_datacenters=2, seed=4
        )
        result = RandomBiasedSamplingScheduler().schedule(ctx(scenario))
        counts = np.bincount(result.assignment, minlength=10)
        assert counts.max() - counts.min() <= 4

    @settings(max_examples=20, deadline=None)
    @given(
        num_vms=st.integers(min_value=1, max_value=20),
        num_cloudlets=st.integers(min_value=1, max_value=80),
        groups=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_every_assignment_complete(self, num_vms, num_cloudlets, groups, seed):
        scenario = heterogeneous_scenario(
            num_vms=num_vms,
            num_cloudlets=num_cloudlets,
            num_datacenters=min(2, num_vms),
            seed=seed,
        )
        result = RandomBiasedSamplingScheduler(num_groups=groups).schedule(
            ctx(scenario, seed)
        )
        validate_assignment(result.assignment, num_cloudlets, num_vms)
