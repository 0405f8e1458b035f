"""The paper's "Base Test": CloudSim's default cyclic broker.

Assigns cloudlet ``i`` to VM ``i mod num_vms`` — "vm1 to c1, vm2 to c2,
vm1 to c3 and so forth" (Section VI-A).  In the homogeneous scenario this
is the optimal schedule, which is exactly why the paper uses it as the
reference.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler, cyclic_take
from repro.workloads.spec import ScenarioArrays
from repro.workloads.streaming import ScenarioChunks


class RoundRobinScheduler(StreamingScheduler):
    """Cyclic cloudlet→VM assignment (zero decision cost).

    Cloudlet ``i`` goes to VM ``(i + start_offset) % num_vms``, a pure
    function of the index: any chunk, shard or live batch is computable
    in isolation, with no carried state.

    Parameters
    ----------
    start_offset:
        Index of the VM that receives the first cloudlet; the paper starts
        at VM 0.
    """

    admits_online = True

    def __init__(self, start_offset: int = 0) -> None:
        if start_offset < 0:
            raise ValueError(f"start_offset must be non-negative, got {start_offset}")
        self.start_offset = start_offset

    @property
    def name(self) -> str:
        return "basetest"

    def open(
        self,
        stream: ScenarioChunks,
        rng: np.random.Generator,
        carry: "dict[str, Any] | None" = None,
    ) -> ChunkAssigner:
        vms = np.arange(stream.num_vms, dtype=np.int64)
        start = self.start_offset

        class Assigner(ChunkAssigner):
            def assign(self, chunk: ScenarioArrays, offset: int) -> np.ndarray:
                return cyclic_take(vms, offset + start, chunk.num_cloudlets)

            def carry_out(self) -> None:
                return None  # offset-pure: any chunk is computable in isolation

        return Assigner()

    def plan_carries(
        self, stream: ScenarioChunks, rng: np.random.Generator, plans
    ) -> "list[dict[str, Any] | None]":
        return [None] * len(plans)


__all__ = ["RoundRobinScheduler"]
