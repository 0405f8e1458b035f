"""Greedy minimum-completion-time (MCT) scheduler.

A classic grid baseline: cloudlets are taken in submission order and each
is placed on the VM whose *current* finish time plus the cloudlet's
expected execution time is smallest.  Equivalent to list scheduling on
unrelated machines; used as a sanity baseline in the ablation benches.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler, cyclic_take
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ConstantCloudlets, ScenarioChunks


def _sequential_repeated_add(step: float, times: int) -> float:
    """``times`` left-to-right additions of ``step`` onto 0.0.

    Matches a per-item accumulator (``r += step`` in a loop) bit-for-bit:
    ``np.add.accumulate`` folds strictly sequentially, unlike ``np.sum``'s
    pairwise reduction.
    """
    if times <= 0:
        return 0.0
    return float(np.add.accumulate(np.full(times, step))[-1])


class _ReadyLevels:
    """Uniform-fleet greedy state: VMs grouped by equal ``ready`` time.

    Answers ``argmin(ready + c)`` — lowest VM index on ties — without the
    O(m) scan.  ``fl(r + c)`` is monotone in ``r``, so the minimum
    completion comes from the lowest ready level, and the only other
    candidates are the next levels whose completion rounds to the same
    value; each level keeps its VMs in a heap, so its candidate is its
    lowest index.  A plain ``(ready, vm)`` heap gets those rounding ties
    wrong (a larger ``ready`` with a lower index loses to the heap top),
    and popping tied entries one by one costs O(m) per cloudlet when many
    VMs share one ready time.  Here a placement costs O(log m) plus one
    step per rounding-tied level.
    """

    def __init__(self, ready: np.ndarray) -> None:
        self.members: "dict[float, list[int]]" = {}
        for vm, r in enumerate(ready.tolist()):
            self.members.setdefault(r, []).append(vm)  # ascending: a valid heap
        self.levels = list(self.members)
        heapq.heapify(self.levels)

    def place(self, step: float) -> int:
        """Place one cloudlet whose execution time is ``step`` everywhere."""
        levels, members = self.levels, self.members
        low = levels[0]
        done = low + step
        # The second-lowest level is a child of the heap root; if neither
        # child rounds to ``done``, no higher level can, and a lone VM on
        # the lowest level just relabels it.
        if (
            len(members[low]) == 1
            and done not in members
            and not (len(levels) > 1 and levels[1] + step == done)
            and not (len(levels) > 2 and levels[2] + step == done)
        ):
            members[done] = members.pop(low)
            heapq.heapreplace(levels, done)
            return members[done][0]
        tied = [heapq.heappop(levels)]
        while levels and levels[0] + step == done:
            tied.append(heapq.heappop(levels))
        vm = heapq.heappop(members[min(tied, key=lambda r: members[r][0])])
        for r in tied:
            if members[r]:
                heapq.heappush(levels, r)
            else:
                del members[r]
        if done in members:
            heapq.heappush(members[done], vm)
        else:
            members[done] = [vm]
            heapq.heappush(levels, done)
        return vm

    def ready(self, num_vms: int) -> np.ndarray:
        out = np.empty(num_vms)
        for r, vms in self.members.items():
            out[vms] = r
        return out


class GreedyMinCompletionScheduler(StreamingScheduler):
    """Assign each cloudlet (in order) to the VM minimising completion time.

    The general path carries the per-VM ``ready`` vector across chunks and
    takes ``argmin(ready + length * inv_capacity)`` per cloudlet (lowest
    VM index on ties) with three numpy calls into one buffer preallocated
    by ``open()``; call overhead, not the O(m) arithmetic, bounds it.  The
    sums are the scalar form's doubles, so decisions equal the scalar
    oracle bit for bit.  Uniform fleets (equal MIPS and PEs) give every VM
    the same execution time, so :class:`_ReadyLevels` answers the same
    argmin exactly in O(log m), dropping the O(n·m) scan.  Uniform fleets
    with *constant* cloudlet lengths collapse further: every VM starts at
    ready 0 and every placement adds the same increment, so placements
    cycle ``0, 1, ..., m-1`` forever and cloudlet ``i`` lands on VM
    ``i % m``: an offset-pure cyclic run that
    :func:`~repro.schedulers.streaming.cyclic_take` slices.

    Sharding: the cyclic fast path needs no carry; the other paths carry
    the per-VM ``ready`` vector, reproduced at each shard boundary by the
    generic serial pre-pass in :meth:`StreamingScheduler.plan_carries`.
    """

    admits_online = True

    @property
    def name(self) -> str:
        return "greedy-mct"

    @staticmethod
    def _uniform(stream: ScenarioChunks) -> bool:
        return (
            float(np.ptp(stream.vm_mips)) == 0.0
            and float(np.ptp(stream.vm_pes)) == 0.0
        )

    def _cyclic(self, stream: ScenarioChunks) -> bool:
        return self._uniform(stream) and isinstance(stream.cloudlets, ConstantCloudlets)

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        m = stream.num_vms
        inv_capacity = 1.0 / (stream.vm_mips * stream.vm_pes)

        if self._cyclic(stream):
            inv = float(inv_capacity[0])
            # One increment, computed with the exact expression the
            # uniform path uses (length * inv) so the info diagnostics agree.
            step = float(stream.cloudlets.length * inv)
            vms = np.arange(m, dtype=np.int64)

            class Assigner(ChunkAssigner):
                def __init__(self) -> None:
                    self._end = 0

                def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                    k = chunk.num_cloudlets
                    self._end = max(self._end, offset + k)
                    return cyclic_take(vms, offset, k)

                def info(self) -> dict[str, Any]:
                    # VM 0 is first served each cycle, so it holds the max
                    # backlog: ceil(end / m) sequential increments.
                    return {
                        "estimated_makespan": _sequential_repeated_add(
                            step, -(-self._end // m)
                        )
                    }

                def carry_out(self) -> None:
                    return None  # offset-pure

            return Assigner()

        ready = (
            np.zeros(m) if carry is None else np.array(carry["ready"], dtype=float)
        )

        if self._uniform(stream):
            inv = float(inv_capacity[0])
            levels = _ReadyLevels(ready)

            class Assigner(ChunkAssigner):
                def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                    place = levels.place
                    return np.array(
                        [place(length * inv) for length in chunk.cloudlet_length.tolist()],
                        dtype=np.int64,
                    )

                def info(self) -> dict[str, Any]:
                    return {"estimated_makespan": float(max(levels.levels))}

                def carry_out(self) -> dict[str, Any]:
                    return {"ready": levels.ready(m)}

            return Assigner()

        completion = np.empty(m)

        class Assigner(ChunkAssigner):
            def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                lengths = chunk.cloudlet_length.tolist()
                out = np.empty(len(lengths), dtype=np.int64)
                multiply, add, argmin = np.multiply, np.add, completion.argmin
                for i, length in enumerate(lengths):
                    # inv * length rounds like length * inv: IEEE
                    # multiplication commutes bitwise.
                    multiply(inv_capacity, length, out=completion)
                    add(ready, completion, out=completion)
                    j = argmin()
                    out[i] = j
                    ready[j] = completion[j]
                return out

            def info(self) -> dict[str, Any]:
                return {"estimated_makespan": float(ready.max())}

            def carry_out(self) -> dict[str, Any]:
                return {"ready": ready.copy()}

        return Assigner()

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        if self._cyclic(stream):
            return [None] * len(plans)
        return super().plan_carries(stream, rng, plans)


__all__ = ["GreedyMinCompletionScheduler"]
