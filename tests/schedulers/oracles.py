"""Scalar reference oracles for the four paper schedulers.

Each oracle is the plain per-cloudlet reading of its algorithm over one
in-memory :class:`~repro.schedulers.base.SchedulingContext` — no chunks,
no carries, no heaps standing in for argmins, no closed forms.  The
production classes run the same algorithms chunk by chunk with pre-passes
and fast paths; these slow loops are what they are pinned against
(``tests/properties/test_streaming_properties.py``), on inputs well
beyond the exactly representable domain.

Every oracle returns ``(assignment, info)`` like ``SchedulingResult``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.schedulers.base import SchedulingContext


def round_robin_oracle(context: SchedulingContext, start_offset: int = 0):
    """Base Test closed form: cloudlet ``i`` → VM ``(i + start_offset) % m``."""
    n, m = context.num_cloudlets, context.num_vms
    return (np.arange(n, dtype=np.int64) + start_offset) % m, {}


def greedy_oracle(context: SchedulingContext):
    """Minimum completion time: one full argmin over the fleet per cloudlet."""
    arr = context.arrays
    n, m = context.num_cloudlets, context.num_vms
    ready = np.zeros(m)
    assignment = np.empty(n, dtype=np.int64)
    inv_capacity = 1.0 / (arr.vm_mips * arr.vm_pes)
    for i in range(n):
        completion = ready + arr.cloudlet_length[i] * inv_capacity
        j = int(np.argmin(completion))
        assignment[i] = j
        ready[j] = completion[j]
    return assignment, {"estimated_makespan": float(ready.max())}


def _pick_datacenter(dc_rank, assigned_per_dc, cap, dc_vms) -> int:
    """Cheapest datacenter with VMs under the facLB cap, else the cheapest."""
    fallback = -1
    for dc in dc_rank:
        dc = int(dc)
        if dc_vms[dc].size == 0:
            continue
        if fallback < 0:
            fallback = dc
        if assigned_per_dc[dc] < cap:
            return dc
    if fallback < 0:
        raise ValueError("no datacenter has any VMs")
    return fallback


def honeybee_oracle(
    context: SchedulingContext,
    load_balance_factor: float = 0.5,
    scout_time_bias: float = 0.0,
):
    """Algorithm 1 as one scalar loop in scheduled (largest-group-first) order."""
    arr = context.arrays
    n, q = context.num_cloudlets, context.num_datacenters
    dc_vms = [np.flatnonzero(arr.vm_datacenter == dc) for dc in range(q)]

    unit_cost = np.full(q, np.inf)
    for dc in range(q):
        members = dc_vms[dc]
        if members.size == 0:
            continue
        unit_cost[dc] = (
            arr.vm_size[members].mean() * arr.dc_cost_per_storage[dc]
            + arr.vm_ram[members].mean() * arr.dc_cost_per_mem[dc]
            + arr.vm_bw[members].mean() * arr.dc_cost_per_bw[dc]
        )
    dc_rank = np.argsort(unit_cost, kind="stable")

    loads = [np.zeros(members.size) for members in dc_vms]
    inv_mips = [1.0 / (arr.vm_mips[members] * arr.vm_pes[members]) for members in dc_vms]
    uniform = [
        members.size > 0 and float(np.ptp(arr.vm_mips[members])) == 0.0
        for members in dc_vms
    ]
    heaps = [
        [(0.0, pos) for pos in range(members.size)] if uniform[dc] else []
        for dc, members in enumerate(dc_vms)
    ]

    cap = max(1, int(np.ceil(load_balance_factor * n)))
    assigned_per_dc = np.zeros(q, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    spills = 0

    groups = [chunk for chunk in np.array_split(np.arange(n), q) if chunk.size]
    group_order = sorted(
        range(len(groups)),
        key=lambda g: float(arr.cloudlet_length[groups[g]].sum()),
        reverse=True,
    )
    for g in group_order:
        for cloudlet_idx in groups[g]:
            dc = _pick_datacenter(dc_rank, assigned_per_dc, cap, dc_vms)
            if dc != dc_rank[0]:
                spills += 1
            length = float(arr.cloudlet_length[cloudlet_idx])
            if uniform[dc]:
                backlog, pos = heapq.heappop(heaps[dc])
                exec_seconds = length * inv_mips[dc][pos]
                heapq.heappush(heaps[dc], (backlog + exec_seconds, pos))
            else:
                exec_seconds = length * inv_mips[dc]
                key = loads[dc] + scout_time_bias * exec_seconds
                pos = int(np.argmin(key))
                loads[dc][pos] += exec_seconds[pos]
            assignment[cloudlet_idx] = dc_vms[dc][pos]
            assigned_per_dc[dc] += 1

    return assignment, {
        "dc_unit_cost": unit_cost.tolist(),
        "assigned_per_dc": assigned_per_dc.tolist(),
        "spills": spills,
        "cap_per_dc": cap,
    }


def rbs_oracle(context: SchedulingContext, num_groups: "int | None" = None):
    """Algorithm 3 after one monolithic draw: all ``n`` ω, then all ``n`` starts.

    The walk is the per-cloudlet loop on plain lists: hop until the
    execution test ``ω > g`` (threshold ``g + 1``) passes on a group with
    capacity, replenishing every NID when the fleet is drained.
    """
    n, m = context.num_cloudlets, context.num_vms
    q = min(num_groups if num_groups is not None else min(4, m), m)
    groups = [g.tolist() for g in np.array_split(np.arange(m), q) if g.size]
    q = len(groups)
    sizes = [len(g) for g in groups]
    nid = list(sizes)
    free_total = sum(sizes)
    cursor = [0] * q

    omegas = context.rng.integers(1, q + 1, size=n).tolist()
    starts = context.rng.integers(0, q, size=n).tolist()
    assignment = np.empty(n, dtype=np.int64)
    hops = 0
    for i in range(n):
        omega, g = omegas[i], starts[i]
        if free_total == 0:
            nid = list(sizes)
            free_total = sum(sizes)
        while not (omega > g and nid[g] > 0):
            omega += 1
            g = g + 1 if g + 1 < q else 0
            hops += 1
        assignment[i] = groups[g][cursor[g]]
        cursor[g] = (cursor[g] + 1) % sizes[g]
        nid[g] -= 1
        free_total -= 1
    return assignment, {"num_groups": q, "mean_walk_length": hops / n if n else 0.0}


#: oracle per registry name of the schedulers that stream natively.
ORACLES = {
    "basetest": round_robin_oracle,
    "greedy-mct": greedy_oracle,
    "honeybee": honeybee_oracle,
    "rbs": rbs_oracle,
}
