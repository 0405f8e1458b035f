"""Honey Bee Optimization scheduler (paper Section III).

The colony metaphor maps onto the cloud as follows (Fig. 1 of the paper):
cloudlets are split into groups (food sources); *forager* VMs — one per
datacenter — evaluate how profitable their datacenter is for a group via
the fitness/cost function of Eq. 1-4::

    DCcost(i, j) = (Size_i + M_i + BW_i) * TCL_j          (Eq. 1)
    Size_i = dchCPS * sizeVM_i                            (Eq. 2)
    M_i    = dchCPR * RAMVM_i                             (Eq. 3)
    BW_i   = dchCPB * BwVM_i                              (Eq. 4)

i.e. the datacenter's unit prices applied to the VM's storage, memory and
bandwidth footprint, scaled by the cloudlet length ``TCL``.  *Scout* VMs
then carry tasks to the best VM inside the winning (cheapest) datacenter.

Interpretation of Algorithm 1 (the paper's pseudocode is informal):

* cloudlets are divided into ``q`` groups, ``q`` = number of datacenters;
  groups are processed largest-total-length first (``max(Groups_k)``);
* for each cloudlet the cheapest *non-saturated* datacenter wins; the
  load-balance factor ``facLB`` caps the fraction of the whole batch any
  single datacenter may take (the ``facLB ≤ VMsAssigned(DC)`` test), and a
  saturated datacenter spills tasks to the next cheapest one;
* inside a datacenter the scout picks the least-loaded VM — backlog
  measured in expected seconds (Algorithm 1 line 11's ``VMleastLoad``),
  which is the reading under which HBO lands between ACO and the Base
  Test on makespan (Fig. 6a) while being driven by cost (Fig. 6d).  An
  optional ``scout_time_bias`` adds a fraction of the candidate's own
  execution time to the backlog key (``bias=1`` makes scouts
  completion-greedy — the ablation benches quantify how that collapses
  HBO into greedy-MCT and destroys the paper's ACO-vs-HBO gap).

For fleets whose per-datacenter VMs share one MIPS rating the scout rule
degenerates to least-backlog regardless of bias, handled with a heap in
O(n log m); the general heterogeneous case uses a vectorised argmin per
assignment.

The scheduler runs in index order over chunks (see
:class:`HoneyBeeScheduler`), so the batch decision is the single-chunk
case; the scalar per-cloudlet reading of Algorithm 1 lives in
``tests/schedulers/oracles.py`` as the reference it is pinned against.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ConstantCloudlets, ScenarioChunks


class _PairwiseStreamSum:
    """Replicates ``float(np.sum(column))`` over a streamed float column.

    ``np.sum`` reduces pairwise: blocks of at most 128 elements are summed
    directly, then partials combine along a fixed binary tree whose split
    is ``half = n // 2`` rounded down to a multiple of 8.  The tree shape
    depends only on ``n``, so feeding the column left to right, buffering
    at most one leaf and folding partials as subtrees close reproduces
    the monolithic result bit-for-bit while holding O(leaf + log n) state
    (pinned against ``np.sum`` in the scheduler unit tests).  HBO uses
    this for Algorithm 1's group-ordering sums: one ``np.sum`` per
    contiguous group, as the reference oracle computes them.
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        self.total = int(total)
        self._fed = 0
        # Work stack: ("sum", k) either is a leaf (k <= 128) or expands
        # into its two halves below a ("combine",) marker that folds the
        # top two partials once both halves resolve.
        self._jobs: "list[tuple]" = [("sum", self.total)] if self.total else []
        self._partials: "list[float]" = []
        self._buffer: "list[np.ndarray]" = []
        self._buffered = 0
        self._need = self._advance()

    def _advance(self) -> int:
        """Run combines until the next leaf size surfaces (0 when done)."""
        while self._jobs:
            job = self._jobs.pop()
            if job[0] == "combine":
                right = self._partials.pop()
                left = self._partials.pop()
                self._partials.append(left + right)
                continue
            size = job[1]
            if size <= 128:
                return size
            half = size // 2
            half -= half % 8
            self._jobs.append(("combine",))
            self._jobs.append(("sum", size - half))
            self._jobs.append(("sum", half))
        return 0

    def feed(self, values: np.ndarray) -> None:
        k = int(values.shape[0])
        if self._fed + k > self.total:
            raise ValueError(
                f"fed {self._fed + k} values into a sum over {self.total}"
            )
        self._fed += k
        i = 0
        while i < k:
            take = min(self._need - self._buffered, k - i)
            self._buffer.append(values[i : i + take])
            self._buffered += take
            i += take
            if self._need and self._buffered == self._need:
                leaf = (
                    self._buffer[0]
                    if len(self._buffer) == 1
                    else np.concatenate(self._buffer)
                )
                self._partials.append(float(leaf.sum()))
                self._buffer = []
                self._buffered = 0
                self._need = self._advance()

    def value(self) -> float:
        if self._fed != self.total:
            raise ValueError(f"sum over {self.total} values got only {self._fed}")
        return self._partials[0] if self.total else 0.0


def _pairwise_const_sum(value: float, count: int) -> float:
    """``float(np.full(count, value).sum())`` in O(log count) time and memory.

    Summing a constant array still reassociates pairwise, so the result
    is not ``value * count`` in general; but the reduction tree depends
    only on ``count``, so equal-sized subtrees have equal partials and
    the whole sum memoises over the O(log count) distinct subtree sizes.
    """
    cache: "dict[int, float]" = {}

    def subtree(k: int) -> float:
        if k in cache:
            return cache[k]
        if k <= 128:
            out = float(np.full(k, value).sum())
        else:
            half = k // 2
            half -= half % 8
            out = subtree(half) + subtree(k - half)
        cache[k] = out
        return out

    return subtree(count) if count else 0.0


class _ScoutState:
    """Mutable Algorithm-1 scout state: per-DC backlogs, heaps and counts.

    O(num_vms) sized, cloneable and picklable — this is what streaming
    HBO carries across chunks and ships across shard boundaries instead
    of an O(n) assignment buffer.
    """

    __slots__ = ("loads", "heaps", "assigned_per_dc", "spills")

    def __init__(self, loads, heaps, assigned_per_dc, spills: int) -> None:
        self.loads = loads
        self.heaps = heaps
        self.assigned_per_dc = assigned_per_dc
        self.spills = spills

    @classmethod
    def fresh(cls, dc_vms: "list[np.ndarray]", uniform: "list[bool]") -> "_ScoutState":
        return cls(
            loads=[np.zeros(members.size) for members in dc_vms],
            heaps=[
                [(0.0, pos) for pos in range(members.size)] if uniform[dc] else []
                for dc, members in enumerate(dc_vms)
            ],
            assigned_per_dc=np.zeros(len(dc_vms), dtype=np.int64),
            spills=0,
        )

    def clone(self) -> "_ScoutState":
        return _ScoutState(
            loads=[arr.copy() for arr in self.loads],
            heaps=[list(heap) for heap in self.heaps],
            assigned_per_dc=self.assigned_per_dc.copy(),
            spills=self.spills,
        )

    def __getstate__(self):
        return (self.loads, self.heaps, self.assigned_per_dc, self.spills)

    def __setstate__(self, state) -> None:
        self.loads, self.heaps, self.assigned_per_dc, self.spills = state


class _HoneyBeeConstAssigner(ChunkAssigner):
    """Offset-pure closed-form Algorithm 1 for constant cloudlets on
    per-datacenter-uniform fleets (the paper-scale homogeneous path).

    The per-cloudlet loop has closed structure when every cloudlet is
    identical and every datacenter's VMs are identical:

    * ``_pick_datacenter`` depends only on running counts, so the ``t``-th
      scheduled cloudlet lands on ranked datacenter ``t // cap`` while
      under cap, then falls back to the cheapest;
    * within a uniform datacenter the ``(backlog, pos)`` heap receives
      equal increments, so pops cycle through positions — the ``r``-th
      cloudlet a datacenter receives goes to VM slot ``r % size``.

    Index ``i`` maps to its scheduled position ``t`` through the group
    tables (``proc_start``), so any chunk is computable in isolation:
    no carry, no pre-pass, O(num_vms) tables only.
    """

    def __init__(
        self,
        g_starts: np.ndarray,
        proc_start: np.ndarray,
        eff: np.ndarray,
        sizes_dc: np.ndarray,
        members_concat: np.ndarray,
        member_off: np.ndarray,
        cap: int,
        info: "dict[str, Any]",
    ) -> None:
        self._g_starts = g_starts
        self._proc_start = proc_start
        self._eff = eff
        self._num_eff = int(eff.size)
        self._sizes_dc = sizes_dc
        self._members_concat = members_concat
        self._member_off = member_off
        self._cap = cap
        self._info = info

    def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
        k = chunk.num_cloudlets
        i = np.arange(offset, offset + k, dtype=np.int64)
        g = np.searchsorted(self._g_starts, i, side="right") - 1
        # Scheduled position of index i: its group's scheduled start plus
        # the in-group rank (groups are contiguous index ranges, and
        # within a group scheduled order == index order).
        t = self._proc_start[g] + (i - self._g_starts[g])
        block = t // self._cap
        under_cap = block < self._num_eff
        d = np.where(
            under_cap, self._eff[np.minimum(block, self._num_eff - 1)], self._eff[0]
        )
        r = np.where(
            under_cap, t - block * self._cap, t - self._cap * self._num_eff + self._cap
        )
        return self._members_concat[self._member_off[d] + r % self._sizes_dc[d]]

    def info(self) -> "dict[str, Any]":
        return dict(self._info)

    def carry_out(self) -> None:
        return None  # offset-pure


class _HoneyBeeGeneralAssigner(ChunkAssigner):
    """Serves Algorithm-1 assignments in index order from O(q·num_vms) state.

    ``entry`` maps each not-yet-entered group to the scout state a serial
    Algorithm-1 run holds when that group's first cloudlet is scheduled
    (computed by the scheduled-order pre-pass); ``state`` is the live
    state for the group currently being served.  Groups are contiguous
    index ranges and within a group scheduled order equals index order,
    so replaying each group from its entry snapshot reproduces the
    scheduled-order assignment bit-for-bit.
    """

    def __init__(
        self,
        params: "dict[str, Any]",
        g_starts: np.ndarray,
        state: _ScoutState,
        entry: "dict[int, _ScoutState]",
        info: "dict[str, Any]",
        start: int,
    ) -> None:
        self._params = params
        self._bounds = [int(b) for b in g_starts]
        self._state = state
        self._entry = entry
        self._info = info
        self._g = int(np.searchsorted(g_starts, start, side="right") - 1)

    def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
        params = self._params
        bounds = self._bounds
        lengths = chunk.cloudlet_length
        k = int(lengths.shape[0])
        out = np.empty(k, dtype=np.int64)
        state, g = self._state, self._g
        step = HoneyBeeScheduler._scout_step
        next_bound = bounds[g + 1]
        for j in range(k):
            if offset + j == next_bound:
                g += 1
                state = self._entry.pop(g)
                next_bound = bounds[g + 1]
            out[j] = step(params, state, float(lengths[j]))
        self._state, self._g = state, g
        return out

    def info(self) -> "dict[str, Any]":
        return dict(self._info)


class HoneyBeeScheduler(StreamingScheduler):
    """HBO cloudlet scheduler (Algorithm 1), chunk by chunk.

    Parameters
    ----------
    load_balance_factor:
        ``facLB``: maximum fraction of the cloudlet batch a single
        datacenter may receive before spilling to the next cheapest.
        Must lie in ``(0, 1]``; 1 disables spilling.
    scout_time_bias:
        Weight of the candidate VM's own execution time in the scout's
        backlog key (0 = pure least-backlog, the paper reading; 1 =
        completion-greedy).  Must be non-negative.

    Algorithm 1 orders cloudlet *groups* by descending total length before
    any assignment happens, so the decision for the first chunk depends on
    the whole workload.  ``open()`` therefore pre-scans the re-iterable
    stream, but holds strictly O(num_vms + chunk_size) state throughout:

    * constant cloudlets on per-DC-uniform fleets (the paper-scale
      homogeneous path) collapse to the offset-pure closed form of
      :class:`_HoneyBeeConstAssigner` — no pre-pass at all;
    * otherwise a first pass folds each group's length sum through
      :class:`_PairwiseStreamSum` (bit-equal to one ``np.sum`` per
      group), a second pass replays the scout in scheduled order,
      snapshotting one O(num_vms) :class:`_ScoutState` at each group
      entry, and the serving pass replays groups from those snapshots in
      index order.  The per-item scout work runs twice (pre-pass +
      serve) — the documented price of dropping the O(n) assignment
      buffer.  A batch ``schedule()`` call is a single materialised
      chunk, so it takes this path too.

    Shard carries ship the boundary scout state plus the entry snapshots
    for groups starting inside the shard: O(q · num_vms) per shard
    instead of O(n / shards) assignment slices.
    """

    def __init__(
        self, load_balance_factor: float = 0.5, scout_time_bias: float = 0.0
    ) -> None:
        if not 0 < load_balance_factor <= 1:
            raise ValueError(
                f"load_balance_factor must be in (0, 1], got {load_balance_factor}"
            )
        if scout_time_bias < 0:
            raise ValueError(f"scout_time_bias must be non-negative, got {scout_time_bias}")
        self.load_balance_factor = load_balance_factor
        self.scout_time_bias = scout_time_bias

    @property
    def name(self) -> str:
        return "honeybee"

    # -- shared fleet-derived parameters ------------------------------------

    def _fleet_params(self, stream: ScenarioChunks) -> "dict[str, Any]":
        """O(num_vms) per-run constants shared by every path and shard."""
        q = stream.num_datacenters
        dc_vms: "list[np.ndarray]" = [
            np.flatnonzero(stream.vm_datacenter == dc) for dc in range(q)
        ]
        # Foragers: per-datacenter mean VM footprint priced with that
        # datacenter's unit costs — the (Size + M + BW) factor of Eq. 1.
        with _TEL.span("hbo.forage"):
            unit_cost = np.full(q, np.inf)
            for dc in range(q):
                members = dc_vms[dc]
                if members.size == 0:
                    continue
                unit_cost[dc] = (
                    stream.vm_size[members].mean() * stream.dc_cost_per_storage[dc]
                    + stream.vm_ram[members].mean() * stream.dc_cost_per_mem[dc]
                    + stream.vm_bw[members].mean() * stream.dc_cost_per_bw[dc]
                )
            dc_rank = np.argsort(unit_cost, kind="stable")
        return {
            "dc_vms": dc_vms,
            "unit_cost": unit_cost,
            "dc_rank": dc_rank,
            "rank0": int(dc_rank[0]),
            "cap": max(1, int(np.ceil(self.load_balance_factor * stream.num_cloudlets))),
            "bias": self.scout_time_bias,
            "inv_mips": [
                1.0 / (stream.vm_mips[members] * stream.vm_pes[members])
                for members in dc_vms
            ],
            # Equal-MIPS datacenters admit an exact heap shortcut: the scout
            # key orders identically to pure backlog for every bias.
            "uniform": [
                members.size > 0 and float(np.ptp(stream.vm_mips[members])) == 0.0
                for members in dc_vms
            ],
            "cyclic_dcs": all(
                members.size == 0
                or (
                    float(np.ptp(stream.vm_mips[members])) == 0.0
                    and float(np.ptp(stream.vm_pes[members])) == 0.0
                )
                for members in dc_vms
            ),
        }

    @staticmethod
    def _group_starts(n: int, q: int) -> np.ndarray:
        """Boundaries of the ``q`` contiguous cloudlet groups (Alg. 1 line 1).

        ``np.array_split(np.arange(n), q)`` semantics without the O(n)
        arrays: the first ``n % q`` groups get one extra element and
        empty groups are dropped, so the boundaries are arithmetic.
        """
        base, extra = divmod(n, q)
        sizes = [base + 1 if g < extra else base for g in range(q)]
        sizes = [size for size in sizes if size]
        g_starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        g_starts[1:] = np.cumsum(sizes)
        return g_starts

    @staticmethod
    def _scout_step(params: "dict[str, Any]", state: _ScoutState, length: float) -> int:
        """One Algorithm-1 placement: pick the datacenter, then the scout's VM."""
        dc = HoneyBeeScheduler._pick_datacenter(
            params["dc_rank"], state.assigned_per_dc, params["cap"], params["dc_vms"]
        )
        if dc != params["rank0"]:
            state.spills += 1
        inv_mips = params["inv_mips"]
        if params["uniform"][dc]:
            backlog, pos = heapq.heappop(state.heaps[dc])
            exec_seconds = length * inv_mips[dc][pos]
            heapq.heappush(state.heaps[dc], (backlog + exec_seconds, pos))
        else:
            exec_seconds = length * inv_mips[dc]
            key = state.loads[dc] + params["bias"] * exec_seconds
            pos = int(np.argmin(key))
            state.loads[dc][pos] += exec_seconds[pos]
        state.assigned_per_dc[dc] += 1
        return int(params["dc_vms"][dc][pos])

    # -- constant fast path ---------------------------------------------------

    def _open_constant(
        self, stream: ScenarioChunks, params: "dict[str, Any]"
    ) -> _HoneyBeeConstAssigner:
        n, q = stream.num_cloudlets, stream.num_datacenters
        c = float(stream.cloudlets.length)
        cap = params["cap"]
        dc_vms, dc_rank = params["dc_vms"], params["dc_rank"]

        g_starts = self._group_starts(n, q)
        q_eff = int(g_starts.size - 1)
        sizes = np.diff(g_starts)
        # The descending float-sum keys of the general path, via the
        # constant-array pairwise replica, so ties and order match exactly.
        group_order = sorted(
            range(q_eff),
            key=lambda g: _pairwise_const_sum(c, int(sizes[g])),
            reverse=True,
        )
        proc_start = np.zeros(q_eff, dtype=np.int64)
        scheduled = 0
        for g in group_order:
            proc_start[g] = scheduled
            scheduled += int(sizes[g])

        eff = np.array(
            [dc for dc in dc_rank if dc_vms[dc].size > 0], dtype=np.int64
        )
        num_eff = int(eff.size)
        sizes_dc = np.array([members.size for members in dc_vms], dtype=np.int64)
        members_concat = np.concatenate(dc_vms)
        member_off = np.zeros(q, dtype=np.int64)
        member_off[1:] = np.cumsum(sizes_dc)[:-1]

        # Closed-form diagnostics: ranked block b takes min(cap, n - b*cap)
        # cloudlets, the post-cap overflow lands on the cheapest with VMs.
        overflow = max(0, n - cap * num_eff)
        assigned_per_dc = np.zeros(q, dtype=np.int64)
        for b in range(num_eff):
            assigned_per_dc[eff[b]] += min(cap, max(0, n - b * cap))
        assigned_per_dc[eff[0]] += overflow
        on_cheapest = (
            min(cap, n) + overflow if int(eff[0]) == params["rank0"] else 0
        )
        info = {
            "dc_unit_cost": params["unit_cost"].tolist(),
            "assigned_per_dc": assigned_per_dc.tolist(),
            "spills": n - on_cheapest,
            "cap_per_dc": cap,
        }
        return _HoneyBeeConstAssigner(
            g_starts, proc_start, eff, sizes_dc, members_concat, member_off, cap, info
        )

    # -- general path ---------------------------------------------------------

    def _prepass(
        self,
        stream: ScenarioChunks,
        params: "dict[str, Any]",
        boundaries: "tuple[int, ...]",
    ):
        """Group ordering + scheduled-order scout replay, O(q·num_vms) state.

        Returns ``(g_starts, entry, boundary, info)`` where ``entry[g]``
        is the scout state when group ``g``'s first cloudlet is scheduled
        and ``boundary[b]`` the state when cloudlet index ``b`` is
        scheduled (for each requested shard boundary ``b``).
        """
        n, q = stream.num_cloudlets, stream.num_datacenters
        g_starts = self._group_starts(n, q)
        q_eff = int(g_starts.size - 1)

        # Pass 1: per-group length sums, bit-equal to
        # float(cloudlet_length[group].sum()).
        sums = [
            _PairwiseStreamSum(int(g_starts[g + 1] - g_starts[g]))
            for g in range(q_eff)
        ]
        for offset, chunk in stream:
            lengths = chunk.cloudlet_length
            pos = offset
            end = offset + int(lengths.shape[0])
            while pos < end:
                g = int(np.searchsorted(g_starts, pos, side="right") - 1)
                take = int(min(end, g_starts[g + 1])) - pos
                sums[g].feed(lengths[pos - offset : pos - offset + take])
                pos += take
        group_order = sorted(
            range(q_eff), key=lambda g: sums[g].value(), reverse=True
        )

        # Pass 2: replay the scout in scheduled order, snapshotting the
        # state at each group entry and each requested index boundary.
        wanted = set(boundaries)
        state = _ScoutState.fresh(params["dc_vms"], params["uniform"])
        entry: "dict[int, _ScoutState]" = {}
        boundary: "dict[int, _ScoutState]" = {}
        for g in group_order:
            entry[g] = state.clone()
            lo, hi = int(g_starts[g]), int(g_starts[g + 1])
            has_boundary = any(lo < b < hi for b in wanted)
            for offset, chunk in stream.iter_cloudlet_range(lo, hi):
                lengths = chunk.cloudlet_length
                for j in range(int(lengths.shape[0])):
                    if has_boundary and offset + j in wanted:
                        boundary[offset + j] = state.clone()
                    self._scout_step(params, state, float(lengths[j]))
        info = {
            "dc_unit_cost": params["unit_cost"].tolist(),
            "assigned_per_dc": state.assigned_per_dc.tolist(),
            "spills": state.spills,
            "cap_per_dc": params["cap"],
        }
        return g_starts, entry, boundary, info

    @staticmethod
    def _carry_for(
        g_starts: np.ndarray,
        entry: "dict[int, _ScoutState]",
        boundary: "dict[int, _ScoutState]",
        info: "dict[str, Any]",
        start: int,
        stop: int,
    ) -> "dict[str, Any]":
        """Carried state for serving ``[start, stop)`` in index order.

        Each snapshot lands in exactly one carry (a group start lies in
        exactly one shard), so carries stay mutation-safe even when shards
        execute sequentially in-process.
        """
        g0 = int(np.searchsorted(g_starts, start, side="right") - 1)
        active = entry[g0] if start == int(g_starts[g0]) else boundary[start]
        return {
            "g_starts": g_starts,
            "start": start,
            "active": active,
            "entry": {
                g: entry[g]
                for g in range(int(g_starts.size - 1))
                if start < int(g_starts[g]) < stop
            },
            "info": info,
        }

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        params = self._fleet_params(stream)
        if isinstance(stream.cloudlets, ConstantCloudlets) and params["cyclic_dcs"]:
            with _TEL.span("hbo.scout"):
                return self._open_constant(stream, params)
        if carry is not None:
            return _HoneyBeeGeneralAssigner(
                params,
                np.asarray(carry["g_starts"], dtype=np.int64),
                carry["active"],
                dict(carry["entry"]),
                dict(carry["info"]),
                int(carry["start"]),
            )
        with _TEL.span("hbo.scout"):
            g_starts, entry, boundary, info = self._prepass(stream, params, ())
        serial = self._carry_for(g_starts, entry, boundary, info, 0, stream.num_cloudlets)
        return _HoneyBeeGeneralAssigner(
            params, g_starts, serial["active"], serial["entry"], info, 0
        )

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        params = self._fleet_params(stream)
        if isinstance(stream.cloudlets, ConstantCloudlets) and params["cyclic_dcs"]:
            return [None] * len(plans)  # offset-pure: workers open() fresh
        boundaries = tuple(plan.start for plan in plans if plan.start > 0)
        with _TEL.span("hbo.scout"):
            g_starts, entry, boundary, info = self._prepass(stream, params, boundaries)
        return [
            self._carry_for(g_starts, entry, boundary, info, plan.start, plan.stop)
            for plan in plans
        ]

    @staticmethod
    def _pick_datacenter(
        dc_rank: np.ndarray,
        assigned_per_dc: np.ndarray,
        cap: int,
        dc_vms: list[np.ndarray],
    ) -> int:
        """Cheapest datacenter with VMs that has not hit the facLB cap.

        Falls back to the cheapest datacenter with VMs when every
        datacenter is saturated (the batch must still be placed).
        """
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


__all__ = ["HoneyBeeScheduler"]
