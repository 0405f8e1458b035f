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
from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler, cyclic_take
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ScenarioChunks

#: batch width of the RNG discard pre-pass: bounded memory, few calls.
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
    * Every sampling round consumes exactly ``total`` cloudlets and gives
      group ``g`` exactly ``sizes[g]``, so rounds are independent.  A call
      lays its cloudlets out as rows, one per round (the rest of the
      current round, whole rounds, a partial last round), and resolves
      every row at once.
    * Within a row the scan target is a pure lookup of the start group
      (first open group cyclically at-or-after it) until a group
      depletes, so a row has at most ``q`` *epochs*, each ending where its
      first group closes.  A group fed only by its own start value closes
      at a directly indexed occurrence of that value; a group that also
      absorbs closed groups' values is found by a binary search over the
      per-value position lists, vectorised across rows.  Each cloudlet's
      group is then one gather from the per-row epoch tables.

    State (per-group NID, free total, cyclic cursors) persists across
    :meth:`walk` calls, so chunked walks concatenate to the monolithic
    walk exactly (the scalar walk in ``tests/schedulers/oracles.py`` is
    the reference).
    """

    def __init__(self, groups: "list[np.ndarray]") -> None:
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        self.q = len(self.groups)
        self.sizes = np.array([g.size for g in self.groups], dtype=np.int64)
        self.total = int(self.sizes.sum())
        self.nid = self.sizes.copy()
        self.free_total = self.total
        self.cursor = np.zeros(self.q, dtype=np.int64)

    def walk(self, omegas: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, int]:
        """Assign one slice of cloudlets; returns ``(vm_indices, hops)``."""
        omegas = np.asarray(omegas, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        k = omegas.shape[0]
        if k == 0:
            return np.empty(0, dtype=np.int64), 0
        q = self.q
        direct = omegas > starts
        s = starts * direct  # scan start: group 0 after a forced wrap
        choice = self._choose(s)
        # Per cloudlet: choice - start, plus q for a forced wrap or a scan
        # past group q - 1 (never both: a wrapped scan starts at group 0).
        wraps = k - np.count_nonzero(direct) + np.count_nonzero(choice < s)
        hops = int(choice.sum() - starts.sum()) + q * int(wraps)
        # Step 6: inside a group the VMs are used cyclically.
        out = np.empty(k, dtype=np.int64)
        for g in range(q):
            idx = np.flatnonzero(choice == g)
            if idx.size:
                cursor = int(self.cursor[g])
                out[idx] = cyclic_take(self.groups[g], cursor, idx.size)
                self.cursor[g] = (cursor + idx.size) % self.sizes[g]
        return out, hops

    def _choose(self, s: np.ndarray) -> np.ndarray:
        """Each cloudlet's group, given its scan start; advances NID."""
        q, total, k = self.q, self.total, s.shape[0]
        # Round coordinates: cloudlet i sits at position i + offset, and
        # row r (round r of this call) spans positions [lo[r], hi[r]).
        fresh = self.free_total in (0, total)
        offset = 0 if fresh else total - self.free_total
        stop = offset + k
        rows = -(-stop // total)
        lo = np.arange(rows, dtype=np.int64) * total
        hi = np.minimum(lo + total, stop)
        lo[0] = offset
        rem = np.tile(self.sizes, (rows, 1))
        if not fresh:
            rem[0] = self.nid

        # Per-value position lists as one sorted key array: value v at
        # position p has key v * stop + p.
        value_base = np.arange(q, dtype=np.int64) * stop
        keys = np.concatenate(
            [np.flatnonzero(s == v) + (value_base[v] + offset) for v in range(q)]
        )

        def rank(p: np.ndarray) -> np.ndarray:
            """``[r, v]``: cloudlets with start value v before position p[r]."""
            needles = (value_base[:, None] + p).ravel()
            return np.searchsorted(keys, needles).reshape(q, rows).T

        row_groups = np.arange(rows)[:, None] * q
        both = np.arange(2 * q)
        top = rank(hi)
        start, filled = lo, rank(lo)
        ends, tables = [], []
        while (start < hi).any():
            is_open = rem > 0
            # lut[r, v]: first open group cyclically at-or-after v.
            after = np.where(np.tile(is_open, 2), both, 2 * q)
            lut = np.minimum.accumulate(after[:, ::-1], axis=1)[:, ::-1][:, :q] % q
            group_of = (row_groups + lut).ravel()
            fed = np.bincount(group_of, minlength=rows * q).reshape(rows, q)

            def taken(ranks: np.ndarray) -> np.ndarray:
                """``[r, g]``: cloudlets group g takes from start to ``ranks``."""
                weights = (ranks - filled).ravel()
                counts = np.bincount(group_of, weights=weights, minlength=rows * q)
                return counts.reshape(rows, q)

            # The epoch ends by the pigeonhole bound and by the directly
            # indexed closing occurrence of every self-fed group.
            own = is_open & (fed == 1)
            nth = filled + rem - 1
            own &= nth < top
            close = keys[np.where(own, nth, 0)] - value_base + 1
            bound = np.minimum(hi, start + (rem - is_open).sum(axis=1) + 1)
            bound = np.minimum(bound, np.where(own, close, bound[:, None]).min(axis=1))
            # Binary-search the groups absorbing closed groups' values.
            multi = is_open & (fed > 1) & (is_open.sum(axis=1) > 1)[:, None]
            a, b = np.where(multi.any(axis=1), start, bound - 1), bound
            while True:
                gap = b - a > 1
                if not gap.any():
                    break
                mid = (a + b) >> 1
                hit = ((taken(rank(mid)) >= rem) & multi).any(axis=1)
                b = np.where(gap & hit, mid, b)
                a = np.where(gap & ~hit, mid, a)
            reached = rank(b)
            rem = rem - taken(reached).astype(np.int64)
            ends.append(b)
            tables.append(lut)
            start, filled = b, reached

        self.nid[:] = rem[-1]
        self.free_total = int(rem[-1].sum())
        epochs = np.repeat(
            np.arange(rows * len(ends)), np.diff(np.column_stack([lo, *ends])).ravel()
        )
        return np.stack(tables, axis=1).ravel()[epochs * q + s]

    def state_dict(self) -> "dict[str, object]":
        """Picklable snapshot of the mutable walk state (O(q) sized).

        The group tables are derivable from the fleet, so only the
        per-round capacities and cyclic cursors travel — restoring them
        via :meth:`load_state` resumes the walk exactly where a serial
        walk would stand (the shard-carry contract).
        """
        return {
            "nid": self.nid.copy(),
            "free_total": int(self.free_total),
            "cursor": self.cursor.copy(),
        }

    def load_state(self, state: "dict[str, object]") -> None:
        """Restore a :meth:`state_dict` snapshot onto this walk."""
        self.nid[:] = np.asarray(state["nid"], dtype=np.int64)
        self.free_total = int(state["free_total"])  # type: ignore[arg-type]
        self.cursor[:] = np.asarray(state["cursor"], dtype=np.int64)


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


def _skip_draws(gen: np.random.Generator, q: int, k: int) -> None:
    """Move ``gen`` past ``k`` bounded draws over ``q`` values, in place.

    numpy draws an int64 from at most 2**32 values out of 32-bit halves of
    the bit generator's 64-bit outputs, buffering the spare half
    (``has_uint32``/``uinteger`` in the state), and Lemire's method never
    rejects when ``q`` is a power of two.  So for PCG64 and such ``q`` the
    draws use up a buffered half first, then ``k // 2`` whole outputs —
    reached with ``PCG64.advance`` in O(1) — and one drawn value when an
    odd count remains.  ``q == 1`` draws nothing.  Any other ``q`` or bit
    generator discards the draws in bounded batches; rejection sampling
    consumes the bit stream per element, so batches land on the same
    state.  ``uinteger`` is dead while ``has_uint32`` is 0 and may then
    differ from a drawing generator's; every later draw is identical.
    """
    if q == 1 or k == 0:
        return
    bit_gen = gen.bit_generator
    if type(bit_gen) is np.random.PCG64 and q & (q - 1) == 0 and q <= 2**32:
        if bit_gen.state["has_uint32"]:
            gen.integers(0, q, size=1)
            k -= 1
        if k > 1:
            bit_gen.advance(k // 2)
        if k % 2:
            gen.integers(0, q, size=1)
        return
    while k > 0:
        block = min(k, _DRAW_BATCH)
        gen.integers(0, q, size=block)
        k -= block


def _carry(
    omega_gen: np.random.Generator,
    starts_gen: np.random.Generator,
    walk: BiasedWalk,
    start: int,
) -> dict[str, Any]:
    """The carry ``open(stream, rng, carry)`` resumes from at cloudlet ``start``."""
    return {
        "omega_state": omega_gen.bit_generator.state,
        "starts_state": starts_gen.bit_generator.state,
        "walk": walk.state_dict(),
        "start": start,
    }


def _walk_info(q: int, hops: int, n: int) -> dict[str, Any]:
    return {"num_groups": q, "mean_walk_length": hops / n if n else 0.0, "walk_hops": hops}


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
    moves the caller's generator past all ``n`` ω draws
    (:func:`_skip_draws`: O(1) for PCG64 and power-of-two ``q``, a
    discarding pre-pass otherwise), and then draws ω from the clone and
    the start groups from the caller's generator lazily per chunk.
    After the last chunk the caller's generator stands exactly ``2n``
    draws on, as after one monolithic ω + start draw.  The walk's O(q)
    state carries across chunks and shard boundaries.
    """

    def __init__(self, num_groups: int | None = None) -> None:
        if num_groups is not None and num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        self.num_groups = num_groups

    @property
    def name(self) -> str:
        return "rbs"

    def _walk(self, num_vms: int) -> BiasedWalk:
        """Steps 1-2: a fresh walk over ``q`` contiguous VM groups."""
        q = self.num_groups if self.num_groups is not None else min(4, num_vms)
        q = min(q, num_vms)
        return BiasedWalk(
            [chunk for chunk in np.array_split(np.arange(num_vms), q) if chunk.size]
        )

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        n = stream.num_cloudlets
        walk = self._walk(stream.num_vms)
        q = walk.q

        if carry is None:
            omega_gen = _generator_from_state(rng.bit_generator.state)
            # Move the caller's generator past the n ω draws, to where the
            # monolithic starts draw begins.
            _skip_draws(rng, q, n)
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
                self._hops = 0

            def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                if offset != self._pos:
                    raise ValueError(
                        "rbs assigner is sequential: expected offset "
                        f"{self._pos}, got {offset}"
                    )
                k = chunk.num_cloudlets
                omegas = omega_gen.integers(1, q + 1, size=k)
                starts = starts_gen.integers(0, q, size=k)
                with _TEL.span("rbs.walk"):
                    out, hops = walk.walk(omegas, starts)
                if _TEL.enabled:
                    _TEL.count("rbs.walk_hops", hops)
                self._hops += hops
                self._pos = offset + k
                return out

            def info(self) -> dict[str, Any]:
                # Hops walked by this assigner only: a carried-in one
                # reports its shard's, and merge_info sums them.
                return _walk_info(q, self._hops, n)

            def carry_out(self) -> dict[str, Any]:
                return _carry(omega_gen, starts_gen, walk, self._pos)

        return Assigner()

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        """Each boundary's carry, walked from its partial sampling round.

        Every round consumes exactly ``total`` cloudlets and gives group
        ``g`` exactly ``sizes[g]``, so at a round boundary every NID is
        full again and every cursor is back at 0.  The walk state at
        boundary ``b`` is therefore a fresh walk over the cloudlets of the
        round holding cloudlet ``b - 1``.  The planner positions an ω clone
        and a starts clone at that round's first draw with
        :func:`_skip_draws`, walks those at most ``total`` cloudlets and
        snapshots: O(shards · num_vms) with PCG64 and power-of-two ``q``,
        no chunk generated and no earlier round walked.  Hops are not
        carried; each shard reports its own and :meth:`merge_info` sums
        them.  The caller's generator is left untouched.
        """
        n = stream.num_cloudlets
        entry = rng.bit_generator.state
        carries: "list[dict[str, Any] | None]" = []
        for plan in plans:
            walk = self._walk(stream.num_vms)
            b = plan.start
            head = (b - 1) // walk.total * walk.total if b else 0
            omega_gen = _generator_from_state(entry)
            _skip_draws(omega_gen, walk.q, head)
            starts_gen = _generator_from_state(entry)
            _skip_draws(starts_gen, walk.q, n + head)
            walk.walk(
                omega_gen.integers(1, walk.q + 1, size=b - head),
                starts_gen.integers(0, walk.q, size=b - head),
            )
            carries.append(_carry(omega_gen, starts_gen, walk, b))
        return carries

    def merge_info(
        self, infos: "list[dict[str, Any]]", num_cloudlets: int
    ) -> dict[str, Any]:
        """Sum the shards' integer hops; divide by ``n`` once."""
        hops = sum(info["walk_hops"] for info in infos)
        return _walk_info(infos[-1]["num_groups"], hops, num_cloudlets)


__all__ = ["BiasedWalk", "RandomBiasedSamplingScheduler"]
