"""Honey Bee Optimization scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.core.rng import spawn_rng
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.hbo import HoneyBeeScheduler, _pairwise_const_sum, _PairwiseStreamSum
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.spec import CloudletSpec, DatacenterSpec, ScenarioSpec, VmSpec
from repro.workloads.streaming import ScenarioChunks, homogeneous_stream

from tests.schedulers.oracles import honeybee_oracle


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


class TestValidation:
    @pytest.mark.parametrize("fac", [0.0, -0.5, 1.5])
    def test_bad_faclb_rejected(self, fac):
        with pytest.raises(ValueError, match="load_balance_factor"):
            HoneyBeeScheduler(load_balance_factor=fac)

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError, match="scout_time_bias"):
            HoneyBeeScheduler(scout_time_bias=-0.1)


class TestBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = HoneyBeeScheduler().schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)

    def test_cheapest_datacenter_receives_most_tasks(self, small_hetero):
        context = ctx(small_hetero)
        result = HoneyBeeScheduler().schedule(context)
        per_dc = np.asarray(result.info["assigned_per_dc"])
        unit_cost = np.asarray(result.info["dc_unit_cost"])
        assert per_dc[np.argmin(unit_cost)] == per_dc.max()

    def test_faclb_cap_is_honored(self, small_hetero):
        context = ctx(small_hetero)
        result = HoneyBeeScheduler(load_balance_factor=0.4).schedule(context)
        per_dc = np.asarray(result.info["assigned_per_dc"])
        cap = result.info["cap_per_dc"]
        assert cap == int(np.ceil(0.4 * 60))
        assert (per_dc <= cap).all()

    def test_faclb_one_routes_everything_to_cheapest(self, small_hetero):
        context = ctx(small_hetero)
        result = HoneyBeeScheduler(load_balance_factor=1.0).schedule(context)
        per_dc = np.asarray(result.info["assigned_per_dc"])
        unit_cost = np.asarray(result.info["dc_unit_cost"])
        assert per_dc[np.argmin(unit_cost)] == 60
        assert result.info["spills"] == 0

    def test_smaller_faclb_spills_more(self, small_hetero):
        low = HoneyBeeScheduler(load_balance_factor=0.3).schedule(ctx(small_hetero))
        high = HoneyBeeScheduler(load_balance_factor=0.9).schedule(ctx(small_hetero))
        assert low.info["spills"] > high.info["spills"]

    def test_cheaper_than_round_robin(self, small_hetero):
        from repro.cloud.simulation import cloudlet_costs
        from repro.schedulers.round_robin import RoundRobinScheduler

        hbo = HoneyBeeScheduler().schedule(ctx(small_hetero))
        rr = RoundRobinScheduler().schedule(ctx(small_hetero))
        cost_hbo = cloudlet_costs(small_hetero.arrays(), hbo.assignment).sum()
        cost_rr = cloudlet_costs(small_hetero.arrays(), rr.assignment).sum()
        assert cost_hbo < cost_rr

    def test_homogeneous_balances_within_datacenters(self, small_homog):
        result = HoneyBeeScheduler().schedule(ctx(small_homog))
        counts = np.bincount(result.assignment, minlength=10)
        arr = small_homog.arrays()
        # Within each datacenter the heap path keeps counts within 1.
        for dc in range(small_homog.num_datacenters):
            members = np.flatnonzero(arr.vm_datacenter == dc)
            if counts[members].sum():
                assert counts[members].max() - counts[members].min() <= 1

    def test_deterministic(self, small_hetero):
        a = HoneyBeeScheduler().schedule(ctx(small_hetero)).assignment
        b = HoneyBeeScheduler().schedule(ctx(small_hetero)).assignment
        np.testing.assert_array_equal(a, b)

    def test_completion_bias_improves_makespan_estimate(self):
        # On a batch with real VM-speed spread, completion-greedy scouts
        # must beat pure-backlog scouts on estimated makespan.
        from tests.schedulers.oracles import estimate_makespan

        scenario = heterogeneous_scenario(num_vms=40, num_cloudlets=400, seed=6)
        arr = scenario.arrays()
        plain = HoneyBeeScheduler(scout_time_bias=0.0).schedule(ctx(scenario))
        biased = HoneyBeeScheduler(scout_time_bias=1.0).schedule(ctx(scenario))
        mk_plain = estimate_makespan(plain.assignment, arr.cloudlet_length, arr.vm_mips)
        mk_biased = estimate_makespan(biased.assignment, arr.cloudlet_length, arr.vm_mips)
        assert mk_biased < mk_plain

    def test_single_datacenter(self):
        scenario = heterogeneous_scenario(
            num_vms=6, num_cloudlets=30, num_datacenters=1, seed=1
        )
        result = HoneyBeeScheduler().schedule(ctx(scenario))
        validate_assignment(result.assignment, 30, 6)

    def test_more_groups_than_cloudlets(self):
        scenario = heterogeneous_scenario(
            num_vms=8, num_cloudlets=2, num_datacenters=4, seed=1
        )
        result = HoneyBeeScheduler().schedule(ctx(scenario))
        validate_assignment(result.assignment, 2, 8)


def one_datacenter(lengths, pes=(1, 1)) -> ScenarioSpec:
    """One datacenter of equal-MIPS VMs (one per entry of ``pes``)."""
    return ScenarioSpec(
        name="one-dc",
        datacenters=(DatacenterSpec(characteristics=DatacenterCharacteristics()),),
        vms=tuple(VmSpec(mips=1000.0, pes=p) for p in pes),
        cloudlets=tuple(CloudletSpec(length=float(length)) for length in lengths),
        vm_datacenter=(0,) * len(pes),
        seed=0,
    )


def streamed(scheduler, stream) -> list:
    """``stream`` assigned chunk by chunk through ``open()``."""
    assigner = scheduler.open(stream, spawn_rng(0, f"scheduler/{stream.name}"))
    return np.concatenate([assigner.assign(c, off) for off, c in stream]).tolist()


class TestScoutBias:
    """With ``scout_time_bias > 0`` the scout key is ``fl(load + bias·exec)``,
    which a least-backlog heap does not order, even on equal-MIPS VMs."""

    @pytest.mark.parametrize(
        "spec, expected",
        [
            # VM 0's backlog exceeds VM 1's by a rounding step that vanishes
            # once the third cloudlet's execution time is added: the keys
            # tie and the argmin takes VM 0, where least backlog is VM 1.
            (one_datacenter([np.nextafter(100.0, 200.0), 100.0, 1000.0]), [0, 1, 0]),
            # Equal MIPS, different PEs: execution times differ per VM.
            (one_datacenter([100.0] * 4, pes=(1, 2)), [1, 0, 1, 1]),
        ],
        ids=["rounding-tie", "mixed-pes"],
    )
    def test_biased_scout_takes_the_argmin(self, spec, expected):
        scheduler = HoneyBeeScheduler(load_balance_factor=1.0, scout_time_bias=1.0)
        oracle, _ = honeybee_oracle(ctx(spec), 1.0, 1.0)
        assert oracle.tolist() == expected
        assert scheduler.schedule(ctx(spec)).assignment.tolist() == expected
        assert streamed(scheduler, ScenarioChunks.from_spec(spec, chunk_size=2)) == expected

    def test_unbiased_heap_matches_the_scan_on_mixed_pes(self):
        # At zero bias the key is the backlog itself, so the streaming
        # heaps and the batch scan agree even when execution times differ.
        spec = one_datacenter([100.0, 300.0, 100.0, 50.0, 700.0], pes=(1, 2, 4))
        scheduler = HoneyBeeScheduler(load_balance_factor=1.0)
        oracle, _ = honeybee_oracle(ctx(spec), 1.0, 0.0)
        assert scheduler.schedule(ctx(spec)).assignment.tolist() == oracle.tolist()
        assert streamed(scheduler, ScenarioChunks.from_spec(spec, chunk_size=2)) == oracle.tolist()

    def test_biased_constant_stream_takes_the_argmin(self):
        # A bias large enough to swamp every backlog makes all keys equal,
        # so the argmin keeps the first VM; the cyclic closed form would not.
        stream = homogeneous_stream(4, 12, num_datacenters=2, chunk_size=5, seed=0)
        assignment = streamed(HoneyBeeScheduler(scout_time_bias=2.0**60), stream)
        oracle, _ = honeybee_oracle(ctx(stream.to_spec()), 0.5, 2.0**60)
        assert assignment == oracle.tolist()
        assert len(set(assignment)) == 2  # one VM per datacenter


class TestGroupSums:
    """Algorithm 1 orders groups by ``np.sum`` of their lengths; the
    streamed replicas must equal it bit for bit, or near-equal groups
    swap order."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 127, 128, 129, 255, 256, 1000, 4097])
    @pytest.mark.parametrize("piece", [1, 3, 64, 10_000])
    def test_stream_sum_matches_np_sum_for_any_feed_split(self, n, piece):
        values = np.random.default_rng(n).uniform(0.0, 1e6, size=n)
        total = _PairwiseStreamSum(n)
        for i in range(0, n, piece):
            total.feed(values[i : i + piece])
        assert total.value() == float(values.sum())

    @pytest.mark.parametrize("count", [0, 1, 9, 128, 129, 1000, 65_537])
    def test_const_sum_matches_np_sum(self, count):
        assert _pairwise_const_sum(0.1, count) == float(np.full(count, 0.1).sum())
