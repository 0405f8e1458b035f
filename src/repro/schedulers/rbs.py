"""Random Biased Sampling scheduler (paper Section V).

RBS organises the VMs into groups, each carrying a *walk-in-length*
threshold ``υ`` (WIL) and a *node-in-degree* ``NID`` equal to the number of
free VMs in the group.  Every cloudlet draws a random walk length ``ω``;
the execution test ``ω ≥ υ`` admits the cloudlet into the group, otherwise
``ω`` is incremented and the walk moves to the next group (Algorithm 3 /
Fig. 3).

Interpretation of the under-specified parts:

* groups get thresholds ``υ = 1 .. q`` (the figure's "WIL = 1 .. n");
* the walk starts at a *random* group — this is the "random" in RBS and is
  what the paper blames for the fluctuations in Fig. 4/6 ("the randomness
  in assigning tasks a WIL value caused only some of the virtual machines
  to be available and not all of them");
* ``NID`` is a per-round capacity: assigning to a group decrements it, and
  when every group is depleted all NIDs replenish (a new sampling round),
  so batches larger than the fleet remain schedulable;
* inside a group the VMs are used cyclically (Step 6: "the assignment
  inside the VMs groups is done in a cyclic way").

The result is a nearly-balanced randomised spread: better balanced than
the metaheuristics (RBS originates as a network load balancer) but noisier
than plain round-robin.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ScenarioChunks

#: batch width for the RNG fast-forward pre-pass (decoupled from the
#: stream's chunk size so tiny chunks never degenerate to scalar draws).
_DRAW_BATCH = 65_536


class BiasedWalk:
    """Vectorised Algorithm-3 walk, bit-identical to the per-item loop.

    The scalar walk has closed structure the vector form exploits:

    * ``omega - g`` is invariant along a walk (both increment per hop), so
      the execution test ``omega > g`` either holds from the start — the
      walk is a cyclic scan from the start group for the first group with
      capacity — or it cannot hold until ``g`` wraps to 0, after which
      ``omega - g >= 1`` forever, so the walk is ``q - g0`` forced hops
      followed by a cyclic scan from group 0.
    * Between capacity events the scan target is a pure lookup of the
      start group (first open group cyclically at-or-after it), so whole
      runs of cloudlets resolve with one table indexing; the table is
      only rebuilt when a group depletes or the round replenishes.

    State (per-group NID, free total, cyclic cursors, hop count) persists
    across :meth:`walk` calls, so chunked walks concatenate to the
    monolithic walk exactly (the scalar walk in
    ``tests/schedulers/oracles.py`` is the reference).
    """

    def __init__(self, groups: "list[np.ndarray]") -> None:
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        self.q = len(self.groups)
        self.sizes = np.array([g.size for g in self.groups], dtype=np.int64)
        self.total = int(self.sizes.sum())
        self.nid = self.sizes.copy()
        self.free_total = self.total
        self.cursor = np.zeros(self.q, dtype=np.int64)
        self.walks_total = 0

    def _first_open_lut(self) -> np.ndarray:
        """``lut[s]`` = first group with capacity cyclically at-or-after ``s``."""
        open_idx = np.flatnonzero(self.nid > 0)
        pos = np.searchsorted(open_idx, np.arange(self.q))
        return open_idx[np.where(pos < open_idx.size, pos, 0)]

    def walk(self, omegas: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, int]:
        """Assign one slice of cloudlets; returns ``(vm_indices, hops)``."""
        omegas = np.asarray(omegas, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        k = omegas.shape[0]
        out = np.empty(k, dtype=np.int64)
        if k == 0:
            return out, 0
        q, nid, sizes = self.q, self.nid, self.sizes
        wrapped = omegas <= starts
        s = np.where(wrapped, 0, starts)
        hops = int(np.where(wrapped, q - starts, 0).sum())
        choice = np.empty(k, dtype=np.int64)
        free_total = self.free_total
        i = 0
        while i < k:
            if free_total == 0:
                nid[:] = sizes
                free_total = self.total
            lut = self._first_open_lut()
            j = min(k, i + free_total)
            cand = lut[s[i:j]]
            counts = np.bincount(cand, minlength=q)
            accept = j - i
            # A group can deplete mid-segment, invalidating the table for
            # later items; truncate at the earliest depleting assignment.
            for g in np.flatnonzero((nid > 0) & (counts >= nid)):
                t = int(np.flatnonzero(cand == g)[nid[g] - 1])
                accept = min(accept, t + 1)
            acc = cand[:accept]
            choice[i : i + accept] = acc
            if accept != j - i:
                counts = np.bincount(acc, minlength=q)
            nid -= counts
            free_total -= accept
            hops += int(((acc - s[i : i + accept]) % q).sum())
            i += accept
        # Step 6: inside a group the VMs are used cyclically.
        for g in range(q):
            idx = np.flatnonzero(choice == g)
            if idx.size == 0:
                continue
            size = int(sizes[g])
            start = int(self.cursor[g])
            out[idx] = self.groups[g][(start + np.arange(idx.size)) % size]
            self.cursor[g] = (start + idx.size) % size
        self.free_total = free_total
        self.walks_total += hops
        return out, hops

    def state_dict(self) -> "dict[str, object]":
        """Picklable snapshot of the mutable walk state (O(q) sized).

        The group tables are derivable from the fleet, so only the
        per-round capacities, cyclic cursors and hop counter travel —
        restoring them via :meth:`load_state` resumes the walk exactly
        where a serial walk would stand (the shard-carry contract).
        """
        return {
            "nid": self.nid.copy(),
            "free_total": int(self.free_total),
            "cursor": self.cursor.copy(),
            "walks_total": int(self.walks_total),
        }

    def load_state(self, state: "dict[str, object]") -> None:
        """Restore a :meth:`state_dict` snapshot onto this walk."""
        self.nid[:] = np.asarray(state["nid"], dtype=np.int64)
        self.free_total = int(state["free_total"])  # type: ignore[arg-type]
        self.cursor[:] = np.asarray(state["cursor"], dtype=np.int64)
        self.walks_total = int(state["walks_total"])  # type: ignore[arg-type]


def _generator_from_state(state: "dict[str, Any]") -> np.random.Generator:
    """A fresh ``Generator`` positioned at a captured bit-generator state.

    ``state`` is the dict ``rng.bit_generator.state`` returns; it names
    its own bit-generator class, so the clone works for any numpy bit
    generator, and draws from the clone continue the original stream
    bit-for-bit.
    """
    bit_cls = getattr(np.random, state["bit_generator"])
    bit_gen = bit_cls()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


class RandomBiasedSamplingScheduler(StreamingScheduler):
    """RBS cloudlet scheduler (Algorithm 3), chunk by chunk.

    Parameters
    ----------
    num_groups:
        Number of VM groups ``q``.  ``None`` (default) uses
        ``min(4, num_vms)``, the smallest grouping that exhibits the
        walk-length dynamics at every paper scale.

    Steps 1-2 split the VMs into ``q`` groups with thresholds ``1..q``
    and NID = group size; steps 3-7 run through :class:`BiasedWalk`.
    All ``n`` walk lengths (ω) are drawn before all ``n`` start groups,
    from the one generator handed to :meth:`open`.  Bounded-integer
    draws consume the underlying bit stream element by element
    (rejection sampling retries per value), so chunked draws concatenate
    bit-identically to one ``size=n`` draw.  ``open()`` exploits this to
    stay O(num_vms + chunk_size): it parks a clone at the ω position,
    fast-forwards the caller's generator past all ``n`` ω draws (a
    discarding pre-pass in bounded batches), and then draws ω from the
    clone and the start groups from the caller's generator lazily per
    chunk.  After the last chunk the caller's generator stands exactly
    ``2n`` draws on, as after one monolithic ω + start draw.  The walk's
    O(q) state carries across chunks and shard boundaries.
    """

    def __init__(self, num_groups: int | None = None) -> None:
        if num_groups is not None and num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        self.num_groups = num_groups

    @property
    def name(self) -> str:
        return "rbs"

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        n, m = stream.num_cloudlets, stream.num_vms
        q = self.num_groups if self.num_groups is not None else min(4, m)
        q = min(q, m)
        groups = [
            chunk for chunk in np.array_split(np.arange(m), q) if chunk.size
        ]
        q = len(groups)
        walk = BiasedWalk(groups)

        if carry is None:
            omega_gen = _generator_from_state(rng.bit_generator.state)
            # Fast-forward past the n ω draws so the caller's generator
            # stands where the monolithic starts draw begins.  Rejection
            # sampling consumes the bit stream per element, so batched
            # discarding lands on the identical state.
            remaining = n
            while remaining > 0:
                block = min(remaining, _DRAW_BATCH)
                rng.integers(1, q + 1, size=block)
                remaining -= block
            starts_gen = rng
            start = 0
        else:
            omega_gen = _generator_from_state(carry["omega_state"])
            starts_gen = _generator_from_state(carry["starts_state"])
            walk.load_state(carry["walk"])
            start = int(carry["start"])

        class Assigner(ChunkAssigner):
            def __init__(self) -> None:
                self._pos = start

            def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                return self.assign_range(offset, chunk.num_cloudlets)

            def assign_range(self, offset: int, k: int) -> np.ndarray:
                # The walk needs only the lazy draws, never the cloudlet
                # columns — plan_carries exploits this to advance through
                # the horizon without generating any chunk.
                if offset != self._pos:
                    raise ValueError(
                        "rbs assigner is sequential: expected offset "
                        f"{self._pos}, got {offset}"
                    )
                omegas = omega_gen.integers(1, q + 1, size=k)
                starts = starts_gen.integers(0, q, size=k)
                with _TEL.span("rbs.walk"):
                    out, walks = walk.walk(omegas, starts)
                if _TEL.enabled:
                    _TEL.count("rbs.walk_hops", walks)
                self._pos = offset + k
                return out

            def info(self) -> dict[str, Any]:
                return {
                    "num_groups": q,
                    "mean_walk_length": walk.walks_total / n if n else 0.0,
                }

            def carry_out(self) -> dict[str, Any]:
                return {
                    "omega_state": omega_gen.bit_generator.state,
                    "starts_state": starts_gen.bit_generator.state,
                    "walk": walk.state_dict(),
                    "start": self._pos,
                }

        return Assigner()

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        """Serial walk pre-pass snapshotting RNG + walk state per boundary.

        The walk is strictly sequential (NID depletion depends on every
        earlier draw), so boundary states come from advancing a serial
        assigner — in draw batches, never materialising assignments.
        Workers then re-walk only their own range; the planner's pass is
        the serial-schedule cost every carry-planning scheduler pays.
        """
        assigner = self.open(stream, rng)
        carries: "list[dict[str, Any] | None]" = []
        for i, plan in enumerate(plans):
            carries.append(assigner.carry_out())
            if i == len(plans) - 1:
                break
            pos = plan.start
            while pos < plan.stop:
                k = min(_DRAW_BATCH, plan.stop - pos)
                assigner.assign_range(pos, k)
                pos += k
        return carries


__all__ = ["BiasedWalk", "RandomBiasedSamplingScheduler"]
