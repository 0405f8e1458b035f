"""Scalar reference oracles for the four paper schedulers.

Each oracle is the plain per-cloudlet reading of its algorithm over one
in-memory :class:`~repro.schedulers.base.SchedulingContext` — no chunks,
no carries, no heaps standing in for argmins, no closed forms.  The
production classes run the same algorithms chunk by chunk with pre-passes
and fast paths; these slow loops are what they are pinned against
(``tests/properties/test_streaming_properties.py``), on inputs well
beyond the exactly representable domain.

Every scheduler oracle returns ``(assignment, info)`` like
``SchedulingResult``.  :func:`honeybee_const_oracle` is HBO's
constant-cloudlet closed form computed per cloudlet, the reference for
the cyclic runs of its constant path (``tests/schedulers/test_cyclic.py``).
For RBS's parts, :func:`rbs_walk_oracle` is the
scalar walk alone and :func:`rbs_carries_oracle` the serial re-walk
reference for its shard carries (``tests/schedulers/test_rbs.py``).
For ACO's parts, :func:`aco_shared_construct_oracle` is the colony
construction with per-step load accumulation and
:func:`aco_pheromone_update_oracle` the evaporation and deposit with the
2-D ``np.add.at`` (``tests/schedulers/test_aco.py``).

:func:`estimated_vm_finish_times` and :func:`estimate_makespan` are the
reference estimators the scheduler tests rank assignments by.
"""

from __future__ import annotations

import numpy as np

from repro.schedulers.base import SchedulingContext


def round_robin_oracle(context: SchedulingContext, start_offset: int = 0):
    """Base Test closed form: cloudlet ``i`` → VM ``(i + start_offset) % m``."""
    n, m = context.num_cloudlets, context.num_vms
    return (np.arange(n, dtype=np.int64) + start_offset) % m, {}


def greedy_ready_oracle(context: SchedulingContext):
    """Minimum completion time: one full argmin over the fleet per cloudlet.

    Returns the assignment and the per-VM ``ready`` vector it ends with.
    """
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
    return assignment, ready


def greedy_oracle(context: SchedulingContext):
    """:func:`greedy_ready_oracle` with the scheduler's ``info``."""
    assignment, ready = greedy_ready_oracle(context)
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
            exec_seconds = float(arr.cloudlet_length[cloudlet_idx]) * inv_mips[dc]
            pos = int(np.argmin(loads[dc] + scout_time_bias * exec_seconds))
            loads[dc][pos] += exec_seconds[pos]
            assignment[cloudlet_idx] = dc_vms[dc][pos]
            assigned_per_dc[dc] += 1

    return assignment, {
        "dc_unit_cost": unit_cost.tolist(),
        "assigned_per_dc": assigned_per_dc.tolist(),
        "spills": spills,
        "cap_per_dc": cap,
    }


def honeybee_const_oracle(assigner, offset: int, k: int) -> np.ndarray:
    """HBO's constant-cloudlet closed form, one cloudlet at a time.

    Maps each index of ``[offset, offset + k)`` through the tables of a
    ``_HoneyBeeConstAssigner`` on its own: its group by ``searchsorted``,
    its scheduled position ``t``, its datacenter block ``t // cap`` (the
    cheapest datacenter once every block is saturated) and its VM slot
    by ``%``.  The assigner slices whole cyclic runs instead.
    """
    g_starts = np.asarray(assigner._bounds, dtype=np.int64)
    proc_start = np.asarray(assigner._schedule, dtype=np.int64)
    eff = np.asarray(assigner._eff, dtype=np.int64)
    cap = assigner._cap
    sizes = np.array([members.size for members in assigner._dc_vms], dtype=np.int64)
    members = np.concatenate(assigner._dc_vms)
    member_off = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    i = np.arange(offset, offset + k, dtype=np.int64)
    g = np.searchsorted(g_starts, i, side="right") - 1
    t = proc_start[g] + (i - g_starts[g])
    block = t // cap
    under_cap = block < eff.size
    d = np.where(under_cap, eff[np.minimum(block, eff.size - 1)], eff[0])
    r = np.where(under_cap, t - block * cap, t - cap * eff.size + cap)
    return members[member_off[d] + r % sizes[d]]


def _rbs_groups(num_vms: int, num_groups: "int | None") -> "list[list[int]]":
    q = min(num_groups if num_groups is not None else min(4, num_vms), num_vms)
    return [g.tolist() for g in np.array_split(np.arange(num_vms), q) if g.size]


def rbs_walk_oracle(groups: "list[list[int]]", omegas: list, starts: list):
    """Algorithm 3's per-cloudlet walk on plain lists.

    Hop until the execution test ``ω > g`` (threshold ``g + 1``) passes on
    a group with capacity, replenishing every NID when the fleet is
    drained.  Returns ``(assignment, hops, state)``; ``state`` holds the
    final ``nid``, ``free_total`` and ``cursor``.
    """
    q = len(groups)
    sizes = [len(g) for g in groups]
    nid = list(sizes)
    free_total = sum(sizes)
    cursor = [0] * q
    assignment = np.empty(len(omegas), dtype=np.int64)
    hops = 0
    for i, (omega, g) in enumerate(zip(omegas, starts)):
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
    return assignment, hops, {"nid": nid, "free_total": free_total, "cursor": cursor}


def generator_at(state: dict) -> np.random.Generator:
    """A fresh generator positioned at a captured ``bit_generator.state``."""
    bit_gen = getattr(np.random, state["bit_generator"])()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def rbs_oracle(context: SchedulingContext, num_groups: "int | None" = None):
    """Algorithm 3 after one monolithic draw: all ``n`` ω, then all ``n`` starts."""
    n = context.num_cloudlets
    groups = _rbs_groups(context.num_vms, num_groups)
    q = len(groups)
    omegas = context.rng.integers(1, q + 1, size=n).tolist()
    starts = context.rng.integers(0, q, size=n).tolist()
    assignment, hops, _ = rbs_walk_oracle(groups, omegas, starts)
    return assignment, {
        "num_groups": q,
        "mean_walk_length": hops / n if n else 0.0,
        "walk_hops": hops,
    }


def rbs_carries_oracle(stream, rng: np.random.Generator, plans, num_groups=None):
    """RBS's state at every shard boundary by the serial re-walk.

    For each plan starting at cloudlet ``b``: an ω generator ``b`` draws
    past ``rng``, a starts generator ``n + b`` draws past it, and the walk
    state after the scalar walk over cloudlets ``[0, b)`` — the whole
    horizon before the boundary, drawn and walked from the start.
    ``rng`` itself is not advanced.
    """
    n = stream.num_cloudlets
    groups = _rbs_groups(stream.num_vms, num_groups)
    q = len(groups)
    entry = rng.bit_generator.state
    omegas = generator_at(entry).integers(1, q + 1, size=n).tolist()
    starts_gen = generator_at(entry)
    starts_gen.integers(1, q + 1, size=n)
    starts = starts_gen.integers(0, q, size=n).tolist()
    carries = []
    for plan in plans:
        b = plan.start
        omega_gen = generator_at(entry)
        omega_gen.integers(1, q + 1, size=b)
        starts_gen = generator_at(entry)
        starts_gen.integers(1, q + 1, size=n)
        starts_gen.integers(0, q, size=b)
        _, _, state = rbs_walk_oracle(groups, omegas[:b], starts[:b])
        carries.append({"omega_gen": omega_gen, "starts_gen": starts_gen, **state})
    return carries


def aco_shared_construct_oracle(state, rng: np.random.Generator):
    """ACO construction when every ant draws from one distribution.

    The static heuristic with per-step tabu, one step per cloudlet in a
    random visit order: each ant draws a VM from the cloudlet's cumulative
    ``τ^α · η^β`` weights, and its per-VM loads grow by that VM's Eq. 6
    time at once.  ``state`` is a ``_ColonyState``; returns the
    ``(assignments, tour_lengths)`` its ``construct`` returns.
    """
    cfg = state.cfg
    n, m, ants = state.n, state.m, cfg.num_ants
    loads = np.zeros((ants, m))
    assignments = np.empty((ants, n), dtype=np.int64)
    ant_rows = np.arange(ants)
    tau_pow = state.tau ** cfg.alpha
    for i in rng.permutation(n):
        cum = np.cumsum(state.tau_pow_row(i, tau_pow) * state.eta_pow_row(i))
        u = rng.random(ants) * cum[-1]
        choice = np.minimum(np.searchsorted(cum, u, side="right"), m - 1)
        assignments[:, i] = choice
        loads[ant_rows, choice] += state.d_row(i)[choice]
    return assignments, loads.max(axis=1)


def aco_pheromone_update_oracle(state, assignments, lengths, best_assignment, best_length):
    """ACO's evaporation and deposits (Eq. 7, 9-11) on ``state.tau``.

    The per-pair layout deposits through ``np.add.at`` with
    ``(cloudlet, VM)`` index pairs, ant by ant.
    """
    cfg = state.cfg
    n = assignments.shape[1]
    tau = state.tau
    tau *= 1.0 - cfg.rho
    deposits = np.repeat(cfg.q / lengths, n)
    elitist = cfg.elitist and best_assignment is not None and np.isfinite(best_length)
    if tau.ndim == 2:
        np.add.at(tau, (np.tile(np.arange(n), cfg.num_ants), assignments.ravel()), deposits)
        if elitist:
            tau[np.arange(n), best_assignment] += cfg.q / best_length
    else:
        np.add.at(tau, assignments.ravel(), deposits)
        if elitist:
            np.add.at(tau, best_assignment, np.full(n, cfg.q / best_length))
    np.clip(tau, 1e-12, None, out=tau)


def estimated_vm_finish_times(
    assignment: np.ndarray, exec_times: np.ndarray, num_vms: int
) -> np.ndarray:
    """Per-VM total of per-cloudlet execution-time estimates.

    With every cloudlet submitted at t=0 and space-shared execution, a VM's
    completion time is the sum of its cloudlets' execution times; the batch
    makespan estimate is the max over VMs: the value the optimizer kernel's
    per-VM loads are pinned against (``tests/optim/test_kernel.py``).
    """
    # bincount is the fused form of zeros + np.add.at: one C pass over the
    # batch instead of buffered fancy-index accumulation (~5-10x faster at
    # the paper's batch sizes), with identical left-to-right summation.
    return np.bincount(assignment, weights=exec_times, minlength=num_vms)


def estimate_makespan(
    assignment: np.ndarray,
    lengths: np.ndarray,
    vm_mips: np.ndarray,
    vm_pes: np.ndarray | None = None,
) -> float:
    """Makespan estimate of an assignment (all submissions at t=0).

    Accounts for multi-PE VMs by dividing a VM's total work across its PEs
    (a lower bound that is exact for single-PE VMs, the paper's setting).
    """
    num_vms = vm_mips.shape[0]
    work = np.bincount(assignment, weights=lengths, minlength=num_vms)
    capacity = vm_mips if vm_pes is None else vm_mips * vm_pes
    return float((work / capacity).max())


#: oracle per registry name of the schedulers that stream natively.
ORACLES = {
    "basetest": round_robin_oracle,
    "greedy-mct": greedy_oracle,
    "honeybee": honeybee_oracle,
    "rbs": rbs_oracle,
}
