"""Network topologies.

The paper uses CloudSim's *default* topology — no network delays — which is
:class:`ZeroLatencyTopology` here.  Delay-matrix and ``networkx``-graph
topologies are provided so the submission path (broker → datacenter) can be
made latency-aware in extension experiments.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


class NetworkTopology(abc.ABC):
    """Latency oracle between simulation entities (by entity id)."""

    @abc.abstractmethod
    def latency(self, src: int, dst: int) -> float:
        """One-way delay in simulated seconds between two entity ids."""


class ZeroLatencyTopology(NetworkTopology):
    """CloudSim's default: messages are instantaneous."""

    def latency(self, src: int, dst: int) -> float:
        return 0.0


class DelayMatrixTopology(NetworkTopology):
    """Latency from an explicit (symmetric or not) delay matrix.

    Entity ids index the matrix directly; ids outside the matrix fall back
    to ``default_latency``.
    """

    def __init__(self, matrix: np.ndarray, default_latency: float = 0.0) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"delay matrix must be square, got shape {matrix.shape}")
        if (matrix < 0).any():
            raise ValueError("delays must be non-negative")
        if default_latency < 0:
            raise ValueError("default_latency must be non-negative")
        self._matrix = matrix
        self._default = float(default_latency)

    def latency(self, src: int, dst: int) -> float:
        n = self._matrix.shape[0]
        if 0 <= src < n and 0 <= dst < n:
            return float(self._matrix[src, dst])
        return self._default

    @property
    def size(self) -> int:
        return self._matrix.shape[0]


class GraphTopology(NetworkTopology):
    """Shortest-path latency over a weighted ``networkx`` graph.

    Nodes are entity ids; edge attribute ``weight`` is the link delay.
    All-pairs shortest paths are precomputed at construction (the scenario
    sizes here make that cheap) so lookups are O(1).
    """

    def __init__(self, graph: nx.Graph, default_latency: float = 0.0) -> None:
        # Deferred so that importing repro.cloud does not load networkx.
        import networkx as nx

        if default_latency < 0:
            raise ValueError("default_latency must be non-negative")
        self._default = float(default_latency)
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
        self._latency: dict[tuple[int, int], float] = {
            (src, dst): float(d)
            for src, targets in lengths.items()
            for dst, d in targets.items()
        }

    def latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self._latency.get((src, dst), self._default)


__all__ = [
    "NetworkTopology",
    "ZeroLatencyTopology",
    "DelayMatrixTopology",
    "GraphTopology",
]
