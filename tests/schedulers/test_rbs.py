"""Random Biased Sampling scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import spawn_rng
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.rbs import BiasedWalk, RandomBiasedSamplingScheduler, _skip_draws
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.streaming import (
    ScenarioChunks,
    heterogeneous_stream,
    homogeneous_stream,
    plan_shards,
)

from tests.schedulers.oracles import generator_at, rbs_carries_oracle, rbs_walk_oracle


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

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("num_cloudlets", [1, 59, 60])
    @pytest.mark.parametrize("num_groups", [1, 3, 4])
    def test_open_leaves_caller_rng_after_both_draws(
        self, num_groups, num_cloudlets, buffered
    ):
        """The same contract for odd ``n``, a buffered 32-bit half on entry
        (``has_uint32 = 1``, as a shared ``BatchAdapter`` generator can
        be), ``q = 1`` (no draws at all) and ``q = 3`` (rejecting draws)."""
        scenario = heterogeneous_scenario(
            num_vms=12, num_cloudlets=num_cloudlets, num_datacenters=2, seed=0
        )
        context = ctx(scenario, 3)
        if buffered:
            context.rng.integers(0, 4, size=1)
        assert context.rng.bit_generator.state["has_uint32"] == buffered
        reference = generator_at(context.rng.bit_generator.state)
        RandomBiasedSamplingScheduler(num_groups=num_groups).schedule(context)
        reference.integers(1, num_groups + 1, num_cloudlets)
        reference.integers(0, num_groups, num_cloudlets)
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


def _next_draws(gen: np.random.Generator) -> tuple:
    """Bounded draws (buffered 32-bit halves) and 64-bit draws, in turn."""
    return gen.integers(0, 2**31, size=5).tolist(), gen.random(3).tolist()


class TestBiasedWalk:
    @pytest.mark.parametrize("split", ["one call", "uneven calls"])
    @pytest.mark.parametrize("rounds", [1, 10, 1000])
    @pytest.mark.parametrize("num_groups", [1, 2, 3, 4, 5, 8])
    def test_matches_scalar_walk(self, num_groups, rounds, split):
        """Whole rounds, a partial last round and calls cut anywhere."""
        rng = np.random.default_rng(1000 * num_groups + rounds)
        groups = np.array_split(np.arange(13), num_groups)
        n = 13 * rounds + 7
        omegas = rng.integers(1, num_groups + 1, size=n)
        starts = rng.integers(0, num_groups, size=n)
        expected, hops, state = rbs_walk_oracle(
            [g.tolist() for g in groups], omegas.tolist(), starts.tolist()
        )
        walk = BiasedWalk(groups)
        parts, walked, i = [], 0, 0
        while i < n:
            k = n if split == "one call" else int(rng.integers(1, 40))
            out, h = walk.walk(omegas[i : i + k], starts[i : i + k])
            parts.append(out)
            walked += h
            i += k
        assert np.array_equal(np.concatenate(parts), expected)
        assert walked == hops
        assert walk.nid.tolist() == state["nid"]
        assert walk.free_total == state["free_total"]
        assert walk.cursor.tolist() == state["cursor"]


class TestSkipDraws:
    @pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937"])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 524_289])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 8])
    def test_lands_where_drawing_does(self, q, k, buffered, bit_generator):
        gen = np.random.Generator(getattr(np.random, bit_generator)(17))
        if buffered:
            gen.integers(0, 4, size=1)
        drawn = generator_at(gen.bit_generator.state)
        drawn.integers(1, q + 1, size=k)
        _skip_draws(gen, q, k)
        assert _next_draws(gen) == _next_draws(drawn)


class TestCarryPlanning:
    """Carries from each boundary's partial round equal the serial re-walk's."""

    @staticmethod
    def _assert_carries_match(stream, plans, rng, num_groups) -> None:
        reference = rbs_carries_oracle(stream, rng, plans, num_groups)
        carries = RandomBiasedSamplingScheduler(num_groups).plan_carries(
            stream, rng, plans
        )
        assert len(carries) == len(plans)
        for plan, carry, ref in zip(plans, carries, reference):
            assert carry["start"] == plan.start
            assert carry["walk"]["nid"].tolist() == ref["nid"]
            assert carry["walk"]["free_total"] == ref["free_total"]
            assert carry["walk"]["cursor"].tolist() == ref["cursor"]
            for key in ("omega", "starts"):
                planned = generator_at(carry[f"{key}_state"])
                assert _next_draws(planned) == _next_draws(ref[f"{key}_gen"])

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("num_groups", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shards", [2, 3, 7])
    @pytest.mark.parametrize(
        "num_vms, num_cloudlets, chunk_size",
        [
            (10, 400, 20),  # every boundary on a round boundary
            (10, 413, 37),  # boundaries inside rounds, short last chunk
            (13, 251, 9),  # odd rounds: odd skip counts for both clones
        ],
    )
    def test_carries_equal_serial_rewalk(
        self, num_vms, num_cloudlets, chunk_size, shards, num_groups, buffered
    ):
        stream = heterogeneous_stream(
            num_vms, num_cloudlets, chunk_size=chunk_size, seed=5
        )
        rng = spawn_rng(5, "carries")
        if buffered:
            rng.integers(0, 4, size=1)
        self._assert_carries_match(stream, plan_shards(stream, shards), rng, num_groups)

    @pytest.mark.parametrize("num_groups", [3, 4])
    def test_mt19937_generator(self, num_groups):
        stream = heterogeneous_stream(13, 251, chunk_size=9, seed=5)
        rng = np.random.Generator(np.random.MT19937(11))
        self._assert_carries_match(stream, plan_shards(stream, 7), rng, num_groups)


class _DrawSpy(np.random.Generator):
    """A generator recording the size of every bounded-integer draw."""

    sizes: "list[int]" = []

    def integers(self, *args, size=None, **kwargs):
        _DrawSpy.sizes.append(size)
        return super().integers(*args, size=size, **kwargs)


@pytest.mark.parametrize("num_cloudlets", [1_000_000, 10_000_000])
def test_planning_draws_and_walks_at_most_one_round_per_boundary(
    monkeypatch, num_cloudlets
):
    """Planning is flat in ``n``, checked by its work rather than its time."""
    stream = homogeneous_stream(1000, num_cloudlets, chunk_size=65_536, seed=0)
    plans = plan_shards(stream, 3)
    rng = spawn_rng(0, f"scheduler/{stream.name}")
    walked: "list[int]" = []
    walk = BiasedWalk.walk

    def spy_walk(self, omegas, starts):
        walked.append(len(omegas))
        return walk(self, omegas, starts)

    def no_chunks(self, start, stop):
        raise AssertionError(f"planning generated cloudlets [{start}, {stop})")

    monkeypatch.setattr(BiasedWalk, "walk", spy_walk)
    monkeypatch.setattr(ScenarioChunks, "iter_cloudlet_range", no_chunks)
    monkeypatch.setattr(np.random, "Generator", _DrawSpy)
    monkeypatch.setattr(_DrawSpy, "sizes", [])
    RandomBiasedSamplingScheduler().plan_carries(stream, rng, plans)

    total = stream.num_vms
    assert len(walked) <= len(plans)
    assert max(walked) <= total
    # Per boundary: one ω and one starts draw of the partial round, plus
    # at most two single draws positioning each clone.
    assert max(_DrawSpy.sizes) <= total
    assert sum(_DrawSpy.sizes) <= len(plans) * (2 * total + 4)
