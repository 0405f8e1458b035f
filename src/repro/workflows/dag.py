"""Workflow DAG model and generators.

A workflow is a set of tasks (cloudlet-like: MI length, file sizes) plus
directed data dependencies: edge ``(u, v, data_mb)`` means task ``v`` needs
``data_mb`` of ``u``'s output, transferred over the consumer VM's bandwidth
when the two tasks land on different VMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import networkx as nx
import numpy as np

from repro.core.checks import check_number
from repro.core.rng import spawn_rng


@dataclass(frozen=True, slots=True)
class WorkflowTask:
    """One node of a workflow DAG."""

    task_id: int
    length: float
    pes: int = 1
    file_size: float = 0.0
    output_size: float = 0.0

    def __post_init__(self) -> None:
        check_number("length", self.length, gt=0)
        check_number("pes", self.pes, ge=1, integer=True)
        check_number("file_size", self.file_size, ge=0)
        check_number("output_size", self.output_size, ge=0)


@dataclass(frozen=True)
class WorkflowSpec:
    """An immutable workflow: tasks + data-dependency edges.

    Attributes
    ----------
    name:
        Label used in reports.
    tasks:
        Tasks with ids ``0 .. n-1`` in index order.
    edges:
        ``(parent_id, child_id, data_mb)`` triples; the graph must be a DAG.
    """

    name: str
    tasks: tuple[WorkflowTask, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("workflow requires at least one task")
        for i, task in enumerate(self.tasks):
            if task.task_id != i:
                raise ValueError(
                    f"task ids must be 0..n-1 in order; index {i} holds id {task.task_id}"
                )
        n = len(self.tasks)
        seen: set[tuple[int, int]] = set()
        for u, v, data in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references unknown tasks")
            if u == v:
                raise ValueError(f"self-loop on task {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if data < 0:
                raise ValueError(f"edge ({u}, {v}) has negative data {data}")
            seen.add((u, v))
        if not nx.is_directed_acyclic_graph(self.graph()):
            raise ValueError("workflow edges contain a cycle")

    # -- graph views -------------------------------------------------------------

    def graph(self) -> nx.DiGraph:
        """``networkx`` view (rebuilt per call; cache at the caller)."""
        g = nx.DiGraph()
        g.add_nodes_from(range(len(self.tasks)))
        g.add_weighted_edges_from(self.edges, weight="data")
        return g

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def parents(self, task_id: int) -> Iterator[tuple[int, float]]:
        """(parent id, data MB) pairs feeding ``task_id``."""
        for u, v, data in self.edges:
            if v == task_id:
                yield u, data

    def children(self, task_id: int) -> Iterator[tuple[int, float]]:
        """(child id, data MB) pairs consuming ``task_id``'s output."""
        for u, v, data in self.edges:
            if u == task_id:
                yield v, data

    def entry_tasks(self) -> list[int]:
        """Tasks with no parents."""
        with_parents = {v for _, v, _ in self.edges}
        return [t for t in range(self.num_tasks) if t not in with_parents]

    def topological_order(self) -> list[int]:
        """One valid execution order."""
        return list(nx.topological_sort(self.graph()))

    def critical_path_seconds(self, mips: float, bandwidth: float | None = None) -> float:
        """Lower bound on the makespan at uniform speed ``mips``.

        Longest path through the DAG counting execution (``length/mips``)
        and, when ``bandwidth`` is given, worst-case data transfer on every
        edge.
        """
        check_number("mips", mips, gt=0)
        if bandwidth is not None:
            check_number("bandwidth", bandwidth, gt=0)
        g = self.graph()
        finish = np.zeros(self.num_tasks)
        for t in nx.topological_sort(g):
            start = 0.0
            for u, _, data in ((u, v, d["data"]) for u, v, d in g.in_edges(t, data=True)):
                transfer = 0.0 if bandwidth is None else data / bandwidth
                start = max(start, finish[u] + transfer)
            finish[t] = start + self.tasks[t].length / mips
        return float(finish.max())


# -- generators --------------------------------------------------------------------


def _sample_lengths(rng: np.random.Generator, n: int, length_range: tuple[float, float]) -> np.ndarray:
    low, high = length_range
    check_number("length_range low", low, gt=0)
    check_number("length_range high", high, ge=low)
    return rng.uniform(low, high, size=n)


def layered_workflow(
    num_layers: int,
    width: int,
    seed: int | None = 0,
    length_range: tuple[float, float] = (1000.0, 20000.0),
    data_range: tuple[float, float] = (10.0, 200.0),
    name: str | None = None,
) -> WorkflowSpec:
    """A layered (pipeline-of-stages) DAG: every task feeds the next layer."""
    check_number("num_layers", num_layers, ge=1, integer=True)
    check_number("width", width, ge=1, integer=True)
    rng = spawn_rng(seed, "workflow/layered")
    n = num_layers * width
    lengths = _sample_lengths(rng, n, length_range)
    tasks = tuple(
        WorkflowTask(task_id=i, length=float(lengths[i]), file_size=300.0, output_size=300.0)
        for i in range(n)
    )
    edges: list[tuple[int, int, float]] = []
    for layer in range(num_layers - 1):
        for a in range(width):
            for b in range(width):
                u = layer * width + a
                v = (layer + 1) * width + b
                edges.append((u, v, float(rng.uniform(*data_range))))
    return WorkflowSpec(
        name=name or f"layered-{num_layers}x{width}", tasks=tasks, edges=tuple(edges)
    )


def fork_join_workflow(
    branches: int,
    seed: int | None = 0,
    length_range: tuple[float, float] = (1000.0, 20000.0),
    data_range: tuple[float, float] = (10.0, 200.0),
    name: str | None = None,
) -> WorkflowSpec:
    """Fork-join: one source fans out to ``branches`` tasks, one sink joins."""
    check_number("branches", branches, ge=1, integer=True)
    rng = spawn_rng(seed, "workflow/forkjoin")
    n = branches + 2
    lengths = _sample_lengths(rng, n, length_range)
    tasks = tuple(
        WorkflowTask(task_id=i, length=float(lengths[i]), file_size=300.0, output_size=300.0)
        for i in range(n)
    )
    edges: list[tuple[int, int, float]] = []
    sink = n - 1
    for b in range(1, branches + 1):
        edges.append((0, b, float(rng.uniform(*data_range))))
        edges.append((b, sink, float(rng.uniform(*data_range))))
    return WorkflowSpec(name=name or f"forkjoin-{branches}", tasks=tasks, edges=tuple(edges))


def random_workflow(
    num_tasks: int,
    edge_probability: float = 0.15,
    seed: int | None = 0,
    length_range: tuple[float, float] = (1000.0, 20000.0),
    data_range: tuple[float, float] = (10.0, 200.0),
    name: str | None = None,
) -> WorkflowSpec:
    """Random DAG: each forward pair ``(i, j>i)`` is an edge with probability
    ``edge_probability`` (upper-triangular construction, always acyclic)."""
    check_number("num_tasks", num_tasks, ge=1, integer=True)
    check_number("edge_probability", edge_probability, ge=0, le=1)
    rng = spawn_rng(seed, "workflow/random")
    lengths = _sample_lengths(rng, num_tasks, length_range)
    tasks = tuple(
        WorkflowTask(task_id=i, length=float(lengths[i]), file_size=300.0, output_size=300.0)
        for i in range(num_tasks)
    )
    edges: list[tuple[int, int, float]] = []
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            if rng.random() < edge_probability:
                edges.append((i, j, float(rng.uniform(*data_range))))
    return WorkflowSpec(
        name=name or f"random-{num_tasks}", tasks=tasks, edges=tuple(edges)
    )


__all__ = [
    "WorkflowTask",
    "WorkflowSpec",
    "layered_workflow",
    "fork_join_workflow",
    "random_workflow",
]
