"""Shared iteration driver for the metaheuristic schedulers.

:class:`IterativeOptimizer` owns what every population/trajectory
optimizer used to hand-roll: the iteration loop, best-so-far bookkeeping,
the two stopping rules (the iteration cap and stagnation patience), and
the :class:`ConvergenceTrace`, always recorded, that lets benches plot
convergence curves instead of endpoints.  Algorithms plug in as
:class:`MoveOperator` implementations that produce one candidate (the
iteration's best) per step.

Determinism contract: the driver itself draws no random numbers — all
randomness flows through the generator handed to the operator — and it
updates the incumbent with a *strict* ``<`` comparison, exactly the
tie-breaking the schedulers used before the refactor.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.checks import check_number
from repro.obs.telemetry import TELEMETRY as _TEL


@dataclass
class ConvergenceTrace:
    """Best-so-far fitness over the course of one optimization run.

    Parallel lists, one entry per recorded iteration (entry 0 is the
    state after initialization): the iteration number, the incumbent
    fitness, cumulative fitness evaluations, and cumulative wall-clock
    seconds since the run started.
    """

    iteration: list[int] = field(default_factory=list)
    best_fitness: list[float] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    wall_clock_s: list[float] = field(default_factory=list)

    def record(
        self, iteration: int, best_fitness: float, evaluations: int, wall_clock_s: float
    ) -> None:
        self.iteration.append(int(iteration))
        self.best_fitness.append(float(best_fitness))
        self.evaluations.append(int(evaluations))
        self.wall_clock_s.append(float(wall_clock_s))

    def __len__(self) -> int:
        return len(self.iteration)

    def is_monotone(self) -> bool:
        """True when best-so-far fitness never increases (elitist contract)."""
        fits = self.best_fitness
        return all(b <= a for a, b in zip(fits, fits[1:]))

    def as_dict(self) -> dict[str, list]:
        """JSON/CSV-friendly form for ``SchedulingResult.info``."""
        return {
            "iteration": list(self.iteration),
            "best_fitness": list(self.best_fitness),
            "evaluations": list(self.evaluations),
            "wall_clock_s": list(self.wall_clock_s),
        }


@dataclass
class Candidate:
    """One iteration's best proposal.

    ``assignment`` may be a live view into operator state — the driver
    copies it only on improvement.  A candidate whose fitness does not
    strictly improve the incumbent may set ``assignment=None``.
    """

    assignment: np.ndarray | None
    fitness: float
    evaluations: int = 0


class MoveOperator(abc.ABC):
    """Pluggable move/variation operator driven by :class:`IterativeOptimizer`.

    Lifecycle: :meth:`initialize` once (build state, optionally evaluate an
    initial population and return the starting incumbent), then
    :meth:`step` per iteration.  ``incumbent_assignment``/``incumbent_fitness``
    carry the driver's best-so-far into the step (PSO's global best, ACO's
    elitist deposit target); they are ``None``/``inf`` until a first
    candidate lands.
    """

    @abc.abstractmethod
    def initialize(self, rng: np.random.Generator) -> Candidate | None:
        """Set up operator state; optionally return the initial incumbent."""

    @abc.abstractmethod
    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate | None:
        """Run one iteration; return its best candidate (or ``None``)."""

    def finalize(
        self, incumbent_assignment: np.ndarray | None, incumbent_fitness: float
    ) -> tuple[np.ndarray, float]:
        """Final (assignment, fitness) — defaults to the driver's incumbent.

        Operators whose historical semantics return something other than
        the all-time best (e.g. GA's final-population argmin) override
        this.
        """
        if incumbent_assignment is None:
            raise RuntimeError("optimizer produced no candidate")
        return incumbent_assignment, incumbent_fitness

    def info(self) -> dict[str, Any]:
        """Operator-specific diagnostics merged into the outcome info."""
        return {}


@dataclass
class OptimizationOutcome:
    """Result of one :meth:`IterativeOptimizer.run`."""

    assignment: np.ndarray
    fitness: float
    iterations: int
    evaluations: int
    #: why the loop ended: "max_iterations" | "stagnation".
    stopped: str
    trace: ConvergenceTrace
    info: dict[str, Any] = field(default_factory=dict)


class IterativeOptimizer:
    """Drives a :class:`MoveOperator` under shared stopping policies.

    Parameters
    ----------
    operator:
        The algorithm's move/variation operator.
    max_iterations:
        Iteration cap.
    patience:
        Stop after this many consecutive iterations without a strict
        improvement of the incumbent (``None`` disables).
    record_every:
        Trace granularity: the :class:`ConvergenceTrace` holds entry 0,
        every k-th iteration and always the final one (caps trace size
        for move-per-iteration algorithms like annealing).
    """

    def __init__(
        self,
        operator: MoveOperator,
        max_iterations: int,
        patience: int | None = None,
        record_every: int = 1,
    ) -> None:
        if patience is not None:
            check_number("patience", patience, ge=1, integer=True)
        self.operator = operator
        self.max_iterations = check_number("max_iterations", max_iterations, ge=1, integer=True)
        self.patience = patience
        self.record_every = check_number("record_every", record_every, ge=1, integer=True)

    def run(self, rng: np.random.Generator) -> OptimizationOutcome:
        with _TEL.span("optim.run"):
            outcome = self._run(rng)
        if _TEL.enabled:
            # Batched after the loop so the disabled path stays counter-free
            # and the enabled path costs two dict updates per run.
            _TEL.count("optim.iterations", outcome.iterations)
            _TEL.count("optim.evaluations", outcome.evaluations)
        return outcome

    def _run(self, rng: np.random.Generator) -> OptimizationOutcome:
        op = self.operator
        t0 = time.perf_counter()
        trace = ConvergenceTrace()

        best_assignment: np.ndarray | None = None
        best_fitness = np.inf
        evaluations = 0

        init = op.initialize(rng)
        if init is not None:
            evaluations += init.evaluations
            if init.fitness < best_fitness:
                assert init.assignment is not None
                best_assignment = np.array(init.assignment, dtype=np.int64)
                best_fitness = float(init.fitness)
        trace.record(0, best_fitness, evaluations, time.perf_counter() - t0)

        stale = 0
        stopped = "max_iterations"
        iterations_run = 0
        for k in range(self.max_iterations):
            candidate = op.step(k, rng, best_assignment, best_fitness)
            iterations_run += 1
            improved = candidate is not None and candidate.fitness < best_fitness
            if candidate is not None:
                evaluations += candidate.evaluations
            if improved:
                assert candidate.assignment is not None
                best_assignment = np.array(candidate.assignment, dtype=np.int64)
                best_fitness = float(candidate.fitness)
                stale = 0
            else:
                stale += 1
            stopping = self.patience is not None and stale >= self.patience
            if stopping or k == self.max_iterations - 1 or (k + 1) % self.record_every == 0:
                trace.record(k + 1, best_fitness, evaluations, time.perf_counter() - t0)
            if stopping:
                stopped = "stagnation"
                break

        assignment, fitness = op.finalize(best_assignment, best_fitness)
        return OptimizationOutcome(
            assignment=np.asarray(assignment, dtype=np.int64),
            fitness=float(fitness),
            iterations=iterations_run,
            evaluations=evaluations,
            stopped=stopped,
            trace=trace,
            info=op.info(),
        )


__all__ = [
    "Candidate",
    "ConvergenceTrace",
    "IterativeOptimizer",
    "MoveOperator",
    "OptimizationOutcome",
]
