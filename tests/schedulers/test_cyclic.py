"""Cyclic runs: ``cyclic_take`` and the placements built from it.

Round-robin, greedy-MCT's constant uniform-fleet path, HBO's constant
path and RBS's Step 6 slice their cyclic runs with
:func:`~repro.schedulers.streaming.cyclic_take`.  These tests pin the
helper against the per-element ``%`` expression it replaces and HBO's
run walk against the per-cloudlet closed form in
``tests/schedulers/oracles.py``, at the chunk edges where a run ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import spawn_rng
from repro.schedulers.base import SchedulingContext
from repro.schedulers.hbo import HoneyBeeScheduler, _HoneyBeeConstAssigner
from repro.schedulers.streaming import cyclic_take
from repro.workloads.streaming import homogeneous_stream

from tests.schedulers.oracles import honeybee_const_oracle, honeybee_oracle


class TestCyclicTake:
    @pytest.mark.parametrize("size", [1, 2, 5, 64])
    @pytest.mark.parametrize("where", ["first", "second", "last"])
    @pytest.mark.parametrize("laps", [0, 1, 10**12])
    def test_equals_the_modulo_expression(self, size, where, laps):
        # Distinct values that are not the positions, so an off-by-one
        # in the slicing shows as a wrong value, not a shifted index.
        members = np.random.default_rng(size).permutation(10 * size)[:size]
        r = {"first": 0, "second": min(1, size - 1), "last": size - 1}[where]
        first = r + laps * size
        for k in sorted({0, 1, size - r, size - r + 1, size, 3 * size + 7}):
            expected = members[(first + np.arange(k)) % size]
            got = cyclic_take(members, first, k)
            assert got.dtype == members.dtype
            assert got.tolist() == expected.tolist(), (first, k)

    @pytest.mark.parametrize("k", [3, 7, 40])
    def test_result_never_aliases_the_members(self, k):
        # k = 3 is one slice, 7 wraps once, 40 tiles.
        members = np.arange(5, dtype=np.int64)
        got = cyclic_take(members, 2, k)
        assert not np.shares_memory(got, members)
        got[:] = -1
        assert members.tolist() == [0, 1, 2, 3, 4]


N, NUM_VMS, NUM_DCS = 1001, 7, 3


def const_assigner(load_balance_factor: float) -> _HoneyBeeConstAssigner:
    """HBO's constant path over 7 VMs in 3 datacenters (sizes 3, 2, 2)."""
    stream = homogeneous_stream(NUM_VMS, N, num_datacenters=NUM_DCS, seed=0)
    assigner = HoneyBeeScheduler(load_balance_factor=load_balance_factor).open(
        stream, spawn_rng(0, f"scheduler/{stream.name}")
    )
    assert isinstance(assigner, _HoneyBeeConstAssigner)
    return assigner


def assigned(assigner, offset: int, k: int) -> list:
    stream = homogeneous_stream(NUM_VMS, N, num_datacenters=NUM_DCS, seed=0, chunk_size=k)
    ((off, chunk),) = stream.iter_cloudlet_range(offset, offset + k)
    return assigner.assign(chunk, off).tolist()


class TestHoneyBeeConstRuns:
    """At facLB 0.3, ``cap`` is 301: datacenter blocks end at scheduled
    positions 301, 602 and 903, every datacenter is saturated from 903
    on, and the groups start at 0, 334 and 668.  ``cap`` is a multiple
    of no datacenter's size, so a run that starts at the wrong slot
    lands on the wrong VM."""

    @pytest.mark.parametrize(
        "offset",
        [0, 334, 668, 301, 602, 903, 950, 1000],
        ids=lambda o: f"at{o}",
    )
    @pytest.mark.parametrize("k", [1, 2, 34, 301])
    def test_chunk_at_an_edge_matches_the_oracle(self, offset, k):
        assigner = const_assigner(0.3)
        k = min(k, N - offset)
        for start in (offset, max(0, offset - k)):  # starting at / ending at the edge
            expected = honeybee_const_oracle(assigner, start, k).tolist()
            assert assigned(assigner, start, k) == expected

    @pytest.mark.parametrize("load_balance_factor", [0.1, 0.3, 0.5, 1.0])
    def test_one_cloudlet_chunks_match_the_scalar_oracle(self, load_balance_factor):
        assigner = const_assigner(load_balance_factor)
        singles = [assigned(assigner, i, 1)[0] for i in range(N)]
        whole = assigned(assigner, 0, N)
        stream = homogeneous_stream(NUM_VMS, N, num_datacenters=NUM_DCS, seed=0)
        scalar, _ = honeybee_oracle(
            SchedulingContext.from_scenario(stream.to_spec(), seed=0),
            load_balance_factor=load_balance_factor,
        )
        assert singles == whole == scalar.tolist()
        assert whole == honeybee_const_oracle(assigner, 0, N).tolist()

    def test_runs_end_where_a_permuted_schedule_jumps(self):
        # Constant streams schedule their groups in index order, so t
        # equals i there.  A permuted schedule (groups 1, 2, 0) makes the
        # scheduled position jump at every group start.
        fleet = const_assigner(0.3)
        assigner = _HoneyBeeConstAssigner(
            np.array([0, 334, 668, 1001]),
            np.array([667, 0, 334]),
            fleet._eff,
            fleet._dc_vms,
            fleet._cap,
            {},
        )
        for offset, k in [(0, N), (330, 10), (334, 1), (660, 20), (668, 333), (333, 2)]:
            expected = honeybee_const_oracle(assigner, offset, k).tolist()
            assert assigned(assigner, offset, k) == expected
