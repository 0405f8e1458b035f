"""A streaming scheduler that ends its own shard-pool worker on a marker file.

Importable by module path, so spawned pool workers can unpickle it.  The
first pool worker to assign a chunk while the marker exists deletes it
and exits at once; ``os.remove`` lets exactly one worker win, and the
rerun after the pool is rebuilt finds no marker.  Assignment itself is
the wrapped scheduler's, so every decision and accumulator is unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any

import numpy as np

from repro.schedulers.streaming import ChunkAssigner, StreamingScheduler


class _ExitingAssigner(ChunkAssigner):
    def __init__(self, inner: ChunkAssigner, marker: str) -> None:
        self.inner = inner
        self.marker = marker

    def assign(self, chunk, offset: int) -> np.ndarray:
        if multiprocessing.parent_process() is not None:
            try:
                os.remove(self.marker)
            except FileNotFoundError:
                pass
            else:
                os._exit(1)
        return self.inner.assign(chunk, offset)

    def info(self) -> dict[str, Any]:
        return self.inner.info()

    def carry_out(self):
        return self.inner.carry_out()


class WorkerExitingScheduler(StreamingScheduler):
    """``inner``, except that a pool worker exits on ``marker`` (see module)."""

    def __init__(self, inner: StreamingScheduler, marker: str) -> None:
        self.inner = inner
        self.marker = marker

    @property
    def name(self) -> str:
        return self.inner.name

    def open(self, stream, rng, carry=None) -> ChunkAssigner:
        return _ExitingAssigner(self.inner.open(stream, rng, carry), self.marker)

    def plan_carries(self, stream, rng, plans):
        return self.inner.plan_carries(stream, rng, plans)

    def merge_info(self, infos, num_cloudlets: int) -> dict[str, Any]:
        return self.inner.merge_info(infos, num_cloudlets)
