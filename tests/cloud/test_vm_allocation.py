"""VM allocation policies."""

from __future__ import annotations

from repro.cloud.host import Host
from repro.cloud.vm import Vm
from repro.cloud.vm_allocation import (
    VmAllocationLeastUsed,
    VmAllocationRoundRobin,
)


def hosts(pe_counts):
    return [
        Host(
            host_id=i,
            mips_per_pe=2000.0,
            pes=p,
            ram=1e6,
            bw=1e6,
            storage=1e9,
        )
        for i, p in enumerate(pe_counts)
    ]


def vm(vm_id=0):
    return Vm(vm_id=vm_id, mips=1000.0)


class TestLeastUsed:
    def test_picks_host_with_most_free_pes(self):
        hs = hosts([2, 8, 4])
        assert VmAllocationLeastUsed().select_host(hs, vm()) is hs[1]

    def test_rebalances_as_hosts_fill(self):
        hs = hosts([2, 2])
        policy = VmAllocationLeastUsed()
        placed = []
        for i in range(4):
            v = vm(i)
            assert policy.allocate(hs, v)
            placed.append(v.host.host_id)
        assert placed.count(0) == 2 and placed.count(1) == 2

    def test_returns_none_when_nothing_fits(self):
        hs = hosts([1])
        policy = VmAllocationLeastUsed()
        assert policy.allocate(hs, vm(0))
        assert policy.select_host(hs, vm(1)) is None
        assert not policy.allocate(hs, vm(1))


class TestRoundRobin:
    def test_rotates(self):
        hs = hosts([4, 4, 4])
        policy = VmAllocationRoundRobin()
        placements = []
        for i in range(6):
            v = vm(i)
            policy.allocate(hs, v)
            placements.append(v.host.host_id)
        assert placements == [0, 1, 2, 0, 1, 2]

    def test_skips_unsuitable(self):
        hs = hosts([1, 4])
        policy = VmAllocationRoundRobin()
        a, b, c = vm(0), vm(1), vm(2)
        policy.allocate(hs, a)
        policy.allocate(hs, b)
        policy.allocate(hs, c)
        assert a.host.host_id == 0
        assert b.host.host_id == 1
        assert c.host.host_id == 1  # host 0 is full, rotation skips it


class TestConsolidating:
    def test_packs_most_used_host_first(self):
        from repro.cloud.vm_allocation import VmAllocationConsolidating

        hs = hosts([4, 4])
        policy = VmAllocationConsolidating()
        placements = []
        for i in range(6):
            v = vm(i)
            assert policy.allocate(hs, v)
            placements.append(v.host.host_id)
        # First host is filled completely before the second is touched.
        assert placements == [0, 0, 0, 0, 1, 1]

    def test_prefers_fuller_host(self):
        from repro.cloud.vm_allocation import VmAllocationConsolidating

        hs = hosts([8, 2])
        policy = VmAllocationConsolidating()
        policy.allocate(hs, vm(0))  # host 1 (2 free PEs < 8)
        assert hs[1].vm_count == 1
        v = vm(1)
        policy.allocate(hs, v)
        assert v.host is hs[1]

    def test_returns_none_when_full(self):
        from repro.cloud.vm_allocation import VmAllocationConsolidating

        hs = hosts([1])
        policy = VmAllocationConsolidating()
        assert policy.allocate(hs, vm(0))
        assert policy.select_host(hs, vm(1)) is None
