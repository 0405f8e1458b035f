"""Scheduler interface and shared machinery.

A scheduler is a *batch* decision procedure: it receives a
:class:`SchedulingContext` describing the cloudlets, VMs and datacenters,
and returns a cloudlet→VM assignment vector.  The simulation façade times
the call (the paper's "scheduling time" metric) and then executes the
assignment on the simulator.

Schedulers must be deterministic given ``(constructor args, context)``:
all randomness flows through the generator handed to
:meth:`Scheduler.schedule` inside the context.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.rng import spawn_rng
from repro.workloads.spec import ScenarioArrays, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.optim import OptimizationOutcome


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a scheduler may look at.

    Wraps the scenario's array views plus a dedicated random generator.
    Construct via :meth:`from_scenario`.
    """

    arrays: ScenarioArrays
    rng: np.random.Generator
    scenario_name: str = ""

    @classmethod
    def from_scenario(
        cls, scenario: ScenarioSpec, seed: int | None = 0
    ) -> "SchedulingContext":
        """Create a context with an RNG derived from ``seed``."""
        return cls(
            arrays=scenario.arrays(),
            rng=spawn_rng(seed, f"scheduler/{scenario.name}"),
            scenario_name=scenario.name,
        )

    def restrict(self, cloudlet_indices, vm_indices) -> "SchedulingContext":
        """Sub-context over a subset of cloudlets and VMs.

        The restricted context shares this context's random generator (so a
        sequence of restricted calls stays deterministic under one seed) and
        renumbers both axes: a scheduler run on the result returns *local*
        VM indices — position ``j`` means global VM ``vm_indices[j]``.  This
        is how failure-aware rescheduling re-invokes a batch scheduler over
        only the surviving VMs.
        """
        return SchedulingContext(
            arrays=self.arrays.take(cloudlet_indices, vm_indices),
            rng=self.rng,
            scenario_name=f"{self.scenario_name}/sub",
        )

    # -- convenience passthroughs ------------------------------------------------

    @property
    def num_cloudlets(self) -> int:
        return self.arrays.num_cloudlets

    @property
    def num_vms(self) -> int:
        return self.arrays.num_vms

    @property
    def num_datacenters(self) -> int:
        return self.arrays.num_datacenters

    def expected_exec_time(self, cloudlet_idx: int) -> np.ndarray:
        """Eq. 6 row for one cloudlet over all VMs."""
        return self.arrays.expected_exec_time(cloudlet_idx)

    def exec_time_matrix(self) -> np.ndarray:
        """Full Eq. 6 matrix (memory permitting)."""
        return self.arrays.exec_time_matrix()


@dataclass
class SchedulingResult:
    """An assignment plus provenance/diagnostics.

    Attributes
    ----------
    assignment:
        ``int64`` array mapping cloudlet index → VM index.
    scheduler_name:
        Registry name of the producing scheduler.
    info:
        Free-form diagnostics (iterations, best tour quality, spills, ...).
    """

    assignment: np.ndarray
    scheduler_name: str
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1:
            raise ValueError("assignment must be one-dimensional")


def validate_assignment(assignment: np.ndarray, num_cloudlets: int, num_vms: int) -> None:
    """Raise ``ValueError`` unless ``assignment`` is complete and in range."""
    arr = np.asarray(assignment)
    if arr.shape != (num_cloudlets,):
        raise ValueError(
            f"assignment shape {arr.shape} != ({num_cloudlets},)"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"assignment must be integral, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_vms):
        raise ValueError(
            f"assignment values must be in [0, {num_vms}), got "
            f"[{arr.min()}, {arr.max()}]"
        )


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable registry name (also the legend label in reports)."""

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        """Produce a cloudlet→VM assignment for the given context."""

    def schedule_checked(self, context: SchedulingContext) -> SchedulingResult:
        """Run :meth:`schedule` and validate the result."""
        result = self.schedule(context)
        validate_assignment(result.assignment, context.num_cloudlets, context.num_vms)
        if result.scheduler_name != self.name:
            raise ValueError(
                f"scheduler {self.name!r} returned result labelled "
                f"{result.scheduler_name!r}"
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def optimizer_result(
    scheduler: Scheduler,
    outcome: "OptimizationOutcome",
    fitness_key: str = "best_makespan_estimate",
    iterations_key: str = "iterations",
    **fields: Any,
) -> SchedulingResult:
    """The result of one :class:`~repro.optim.IterativeOptimizer` run.

    ``info`` holds the final fitness under ``fitness_key``, the iteration
    count under ``iterations_key``, the operator's own diagnostics and the
    scheduler's ``fields``, then ``evaluations``, ``stopped`` (why the
    loop ended) and ``convergence`` (the trace).
    """
    return SchedulingResult(
        assignment=outcome.assignment,
        scheduler_name=scheduler.name,
        info={
            fitness_key: outcome.fitness,
            iterations_key: outcome.iterations,
            **outcome.info,
            **fields,
            "evaluations": outcome.evaluations,
            "stopped": outcome.stopped,
            "convergence": outcome.trace.as_dict(),
        },
    )


__all__ = [
    "Scheduler",
    "SchedulingContext",
    "SchedulingResult",
    "optimizer_result",
    "validate_assignment",
]
