"""Simulated annealing scheduler.

A further metaheuristic baseline (the evolutionary-computation survey the
paper cites [8] covers annealing alongside GA/PSO/ACO): start from a
balanced assignment, repeatedly move one random cloudlet to a random VM,
accept improving moves always and worsening moves with probability
``exp(-delta / T)`` under a geometric cooling schedule.

The inner loop runs on the shared optimizer stack: the move is scored by
:class:`repro.optim.FitnessKernel` delta-evaluation (O(1) amortised — only
the two touched VM accumulators change per move) and the loop itself is
driven by :class:`repro.optim.IterativeOptimizer`, which also produces the
convergence trace in ``SchedulingResult.info["convergence"]``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.checks import check_number
from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IncrementalLoads, IterativeOptimizer, MoveOperator
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult, optimizer_result


class _AnnealingOperator(MoveOperator):
    """One proposed move per step over an :class:`IncrementalLoads` state."""

    def __init__(self, cfg: "SimulatedAnnealingScheduler", context: SchedulingContext) -> None:
        self.cfg = cfg
        self.context = context
        self.accepted = 0

    def initialize(self, rng: np.random.Generator) -> Candidate:
        cfg = self.cfg
        n, m = self.context.num_cloudlets, self.context.num_vms
        self.kernel = FitnessKernel(self.context.arrays, time_model="compute")
        # Start from round-robin (balanced counts).
        self.state = IncrementalLoads(
            self.kernel, np.arange(n, dtype=np.int64) % m
        )
        self.current = self.state.makespan
        self.temperature = cfg.initial_temperature * max(self.current, 1e-12)
        # Pre-drawn move stream: the whole trajectory is fixed by the seed
        # up front, in three blocks.
        self.moves_i = rng.integers(0, n, size=cfg.iterations)
        self.moves_j = rng.integers(0, m, size=cfg.iterations)
        self.uniforms = rng.random(cfg.iterations)
        return Candidate(self.state.assignment, self.current, evaluations=1)

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate | None:
        i = int(self.moves_i[iteration])
        new_vm = int(self.moves_j[iteration])
        candidate = self.state.propose(i, new_vm)
        if candidate is None:
            self.temperature *= self.cfg.cooling
            return None
        delta = candidate - self.current
        if delta <= 0 or self.uniforms[iteration] < math.exp(
            -delta / max(self.temperature, 1e-300)
        ):
            self.state.commit()
            self.current = candidate
            self.accepted += 1
            self.temperature *= self.cfg.cooling
            return Candidate(self.state.assignment, self.current, evaluations=1)
        self.state.reject()
        self.temperature *= self.cfg.cooling
        return Candidate(None, self.current, evaluations=1)

    def info(self) -> dict:
        return {"accepted_moves": self.accepted}


class SimulatedAnnealingScheduler(Scheduler):
    """Simulated annealing over assignment vectors, minimising makespan.

    Parameters
    ----------
    iterations:
        Number of proposed moves.
    initial_temperature:
        Starting temperature, as a fraction of the initial makespan
        estimate (scale-free).
    cooling:
        Geometric cooling factor per move, in (0, 1).
    """

    def __init__(
        self,
        iterations: int = 5000,
        initial_temperature: float = 0.2,
        cooling: float = 0.999,
    ) -> None:
        self.iterations = check_number("iterations", iterations, ge=1, integer=True)
        self.initial_temperature = check_number(
            "initial_temperature", initial_temperature, gt=0
        )
        self.cooling = check_number("cooling", cooling, gt=0, lt=1)

    @property
    def name(self) -> str:
        return "annealing"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _AnnealingOperator(self, context)
        # No per-move span: one move is ~µs-scale, so the anneal is timed as
        # a whole and the kernel's delta counters carry the per-move story.
        with _TEL.span("annealing.anneal"):
            outcome = IterativeOptimizer(
                operator, self.iterations, record_every=max(1, self.iterations // 200)
            ).run(context.rng)
        return optimizer_result(self, outcome)


__all__ = ["SimulatedAnnealingScheduler"]
