"""Max-Min, Min-Min, greedy MCT and random baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import spawn_rng
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.greedy import GreedyMinCompletionScheduler
from repro.schedulers.maxmin import MaxMinScheduler, MinMinScheduler
from repro.schedulers.random_assign import RandomScheduler
from repro.schedulers.streaming import make_streaming_scheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.spec import CloudletSpec, DatacenterSpec, ScenarioSpec, VmSpec
from repro.workloads.streaming import ScenarioChunks, heterogeneous_stream

from tests.schedulers.oracles import estimate_makespan, greedy_oracle, greedy_ready_oracle


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


def reference_maxmin(lengths, capacity, select_max):
    """Textbook O(n^2 m) Max-Min / Min-Min."""
    n = len(lengths)
    ready = np.zeros_like(capacity)
    assignment = np.full(n, -1)
    remaining = set(range(n))
    while remaining:
        best_i, best_j, best_t = None, None, None
        for i in remaining:
            completion = ready + lengths[i] / capacity
            j = int(np.argmin(completion))
            t = completion[j]
            better = (
                best_t is None
                or (select_max and t > best_t)
                or (not select_max and t < best_t)
            )
            if better:
                best_i, best_j, best_t = i, j, t
        assignment[best_i] = best_j
        ready[best_j] += lengths[best_i] / capacity[best_j]
        remaining.discard(best_i)
    return assignment, ready


class TestGreedy:
    def test_matches_reference(self, small_hetero):
        result = GreedyMinCompletionScheduler().schedule(ctx(small_hetero))
        expected, info = greedy_oracle(ctx(small_hetero))
        np.testing.assert_array_equal(result.assignment, expected)
        assert result.info == info

    def test_beats_round_robin(self, small_hetero):
        from repro.schedulers.round_robin import RoundRobinScheduler

        context = ctx(small_hetero)
        arr = context.arrays
        greedy = GreedyMinCompletionScheduler().schedule(context)
        rr = RoundRobinScheduler().schedule(context)
        assert estimate_makespan(
            greedy.assignment, arr.cloudlet_length, arr.vm_mips
        ) < estimate_makespan(rr.assignment, arr.cloudlet_length, arr.vm_mips)


class TestGreedyAtBenchmarkShape:
    """The general path on the ``hetero`` benchmark's stream: 1,000 mixed
    VMs and 32,768 random lengths in two 16,384-cloudlet chunks, far past
    the few hundred cloudlets the tests above reach."""

    CHUNK = 16_384

    @pytest.fixture(scope="class")
    def bench(self):
        stream = heterogeneous_stream(1000, 32768, chunk_size=self.CHUNK, seed=1)
        context = ctx(stream.to_spec(), seed=1)
        head = context.restrict(np.arange(self.CHUNK), np.arange(stream.num_vms))
        return stream, context, greedy_ready_oracle(context), greedy_ready_oracle(head)

    def test_streamed_decisions_and_carries_match_the_oracle(self, bench):
        stream, context, (expected, ready), (_, head_ready) = bench
        assigner = make_streaming_scheduler("greedy-mct").open(stream, context.rng)
        picks, carries = [], []
        for offset, chunk in stream:
            picks.append(assigner.assign(chunk, offset))
            carries.append(assigner.carry_out()["ready"])
        assert np.concatenate(picks).tobytes() == expected.tobytes()
        assert carries[0].tobytes() == head_ready.tobytes()
        assert carries[-1].tobytes() == ready.tobytes()
        assert assigner.info() == {"estimated_makespan": float(ready.max())}

    def test_uneven_batches_match_the_oracle(self, bench):
        """Batches of 1, 3, 64 and the rest, as the serve fleet submits them."""
        stream, context, (expected, ready), _ = bench
        arr = context.arrays
        assigner = make_streaming_scheduler("greedy-mct").open(stream, context.rng)
        bounds = [0, 1, 4, 68, stream.num_cloudlets]
        picks = [
            assigner.assign(
                stream.chunk_arrays(
                    cloudlet_length=arr.cloudlet_length[lo:hi],
                    cloudlet_pes=arr.cloudlet_pes[lo:hi],
                    cloudlet_file_size=arr.cloudlet_file_size[lo:hi],
                    cloudlet_output_size=arr.cloudlet_output_size[lo:hi],
                ),
                lo,
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert [len(p) for p in picks] == [1, 3, 64, stream.num_cloudlets - 68]
        assert np.concatenate(picks).tobytes() == expected.tobytes()
        assert assigner.carry_out()["ready"].tobytes() == ready.tobytes()


class TestGreedyUniformFleetTies:
    """Uniform fleets use a ``(ready, vm)`` heap in place of the argmin.

    Regression: a VM with a larger ``ready`` and a lower index can round
    to the same completion ``ready + c`` as the heap top; ``np.argmin``
    then picks the lower index, and so must the heap.
    """

    LENGTHS = (float(np.nextafter(100.0, 200.0)), 100.0, 1000.0)

    def _spec(self):
        return ScenarioSpec(
            name="greedy-tie",
            datacenters=(DatacenterSpec(),),
            vms=(VmSpec(mips=1000.0), VmSpec(mips=1000.0)),
            cloudlets=tuple(CloudletSpec(length=ln) for ln in self.LENGTHS),
            vm_datacenter=(0, 0),
            seed=0,
        )

    def test_oracle_breaks_the_tie_by_index(self):
        expected, _ = greedy_oracle(ctx(self._spec()))
        assert expected.tolist() == [0, 1, 0]

    def test_batch_matches_argmin(self):
        result = GreedyMinCompletionScheduler().schedule(ctx(self._spec()))
        assert result.assignment.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("chunk_size", [1, 2, 3])
    def test_streamed_matches_argmin(self, chunk_size):
        stream = ScenarioChunks.from_spec(self._spec(), chunk_size=chunk_size)
        assert _streamed(stream) == [0, 1, 0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        num_vms=st.integers(1, 4),
        mips=st.sampled_from([1000.0, 7.0, 1000.0 / 3.0]),
        base=st.sampled_from([100.0, 250.0, 0.1]),
        picks=st.lists(st.tuples(st.integers(-1, 1), st.integers(1, 3)), min_size=1, max_size=8),
        chunk_size=st.integers(1, 8),
    )
    def test_near_tie_traces_match_the_oracle(self, num_vms, mips, base, picks, chunk_size):
        """Lengths one ulp either side of shared multiples force rounding ties."""
        lengths = [
            float(np.nextafter(base * k, base * k + ulp)) if ulp else base * k
            for ulp, k in picks
        ]
        spec = ScenarioSpec(
            name="greedy-near-tie",
            datacenters=(DatacenterSpec(),),
            vms=tuple(VmSpec(mips=mips) for _ in range(num_vms)),
            cloudlets=tuple(CloudletSpec(length=ln) for ln in lengths),
            vm_datacenter=(0,) * num_vms,
            seed=0,
        )
        expected, info = greedy_oracle(ctx(spec))
        result = GreedyMinCompletionScheduler().schedule(ctx(spec))
        assert result.assignment.tolist() == expected.tolist()
        assert result.info == info
        assert _streamed(ScenarioChunks.from_spec(spec, chunk_size)) == expected.tolist()


def _streamed(stream) -> list[int]:
    assigner = make_streaming_scheduler("greedy-mct").open(
        stream, spawn_rng(0, f"scheduler/{stream.name}")
    )
    return sum((assigner.assign(chunk, off).tolist() for off, chunk in stream), [])


class TestMaxMinMinMin:
    @pytest.mark.parametrize(
        "scheduler_cls,select_max",
        [(MaxMinScheduler, True), (MinMinScheduler, False)],
    )
    def test_matches_textbook_reference(self, scheduler_cls, select_max):
        scenario = heterogeneous_scenario(
            num_vms=5, num_cloudlets=18, num_datacenters=2, seed=8
        )
        context = ctx(scenario)
        arr = context.arrays
        result = scheduler_cls().schedule(context)
        expected, ready = reference_maxmin(
            arr.cloudlet_length, arr.vm_mips * arr.vm_pes, select_max
        )
        np.testing.assert_array_equal(result.assignment, expected)
        assert result.info["estimated_makespan"] == pytest.approx(ready.max())

    def test_names(self):
        assert MaxMinScheduler().name == "maxmin"
        assert MinMinScheduler().name == "minmin"

    def test_maxmin_not_worse_than_minmin_usually(self, small_hetero):
        # Max-Min schedules big tasks first, which typically yields a lower
        # makespan than Min-Min on spread-out workloads.
        context = ctx(small_hetero)
        arr = context.arrays
        mm = MaxMinScheduler().schedule(context)
        nn = MinMinScheduler().schedule(ctx(small_hetero))
        mk_max = estimate_makespan(mm.assignment, arr.cloudlet_length, arr.vm_mips)
        mk_min = estimate_makespan(nn.assignment, arr.cloudlet_length, arr.vm_mips)
        assert mk_max <= mk_min * 1.05


class TestRandom:
    def test_valid_and_deterministic(self, small_hetero):
        a = RandomScheduler().schedule(ctx(small_hetero, 7))
        b = RandomScheduler().schedule(ctx(small_hetero, 7))
        validate_assignment(a.assignment, 60, 12)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_uses_many_vms(self):
        scenario = heterogeneous_scenario(num_vms=10, num_cloudlets=500, seed=0)
        result = RandomScheduler().schedule(ctx(scenario))
        assert len(np.unique(result.assignment)) == 10
