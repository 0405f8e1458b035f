"""Base Test scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import spawn_rng
from repro.schedulers.base import SchedulingContext
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workloads.streaming import homogeneous_stream

from tests.schedulers.oracles import round_robin_oracle


class TestRoundRobin:
    def test_cyclic_pattern(self, tiny_context):
        result = RoundRobinScheduler().schedule(tiny_context)
        np.testing.assert_array_equal(result.assignment, np.arange(8) % 4)

    def test_start_offset(self, tiny_context):
        result = RoundRobinScheduler(start_offset=2).schedule(tiny_context)
        np.testing.assert_array_equal(result.assignment, (np.arange(8) + 2) % 4)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(start_offset=-1)

    def test_name(self):
        assert RoundRobinScheduler().name == "basetest"

    def test_counts_differ_by_at_most_one(self, small_hetero):
        from repro.schedulers.base import SchedulingContext

        ctx = SchedulingContext.from_scenario(small_hetero, seed=0)
        result = RoundRobinScheduler().schedule(ctx)
        counts = np.bincount(result.assignment, minlength=ctx.num_vms)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("chunk_size", [1, 3, 500, 4096])
    @pytest.mark.parametrize("start_offset", [1, 499, 1001])
    def test_streamed_start_offset_matches_oracle(self, start_offset, chunk_size):
        # Chunks land on, before and after the fleet's wrap point.
        stream = homogeneous_stream(500, 1234, seed=0, chunk_size=chunk_size)
        assigner = RoundRobinScheduler(start_offset=start_offset).open(
            stream, spawn_rng(0, f"scheduler/{stream.name}")
        )
        streamed = np.concatenate([assigner.assign(c, off) for off, c in stream])
        expected, _ = round_robin_oracle(
            SchedulingContext.from_scenario(stream.to_spec(), seed=0), start_offset
        )
        np.testing.assert_array_equal(streamed, expected)
