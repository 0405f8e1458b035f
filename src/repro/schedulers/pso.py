"""Discrete Particle Swarm Optimization scheduler.

Related-work baseline (references [18], [23], [30] of the paper): each
particle's *position* is a complete assignment vector (one VM index per
cloudlet, the integer encoding of Pandey et al.).  Velocity is modelled
probabilistically, as usual for discrete PSO: at every step each component
of a particle either keeps its value, jumps to the particle's personal
best, jumps to the global best, or re-randomises (exploration), with
probabilities derived from the inertia/cognitive/social coefficients.

Fitness is the estimated batch makespan, evaluated for the whole swarm at
once by :meth:`repro.optim.FitnessKernel.batch_makespans`; the iteration
loop, global-best bookkeeping and convergence trace come from
:class:`repro.optim.IterativeOptimizer`.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IterativeOptimizer, MoveOperator
from repro.schedulers.base import (
    Scheduler,
    SchedulingContext,
    SchedulingResult,
    optimizer_result,
)


class _PsoOperator(MoveOperator):
    """Probabilistic position update over the whole swarm per step."""

    def __init__(self, cfg: "ParticleSwarmScheduler", context: SchedulingContext) -> None:
        self.cfg = cfg
        self.context = context

    # -- fitness -----------------------------------------------------------------

    def _fitness(self, positions: np.ndarray) -> np.ndarray:
        """Estimated makespans of a (particles, n) position block."""
        with _TEL.span("pso.fitness"):
            return self.kernel.batch_makespans(positions)

    # -- lifecycle ----------------------------------------------------------------

    def initialize(self, rng: np.random.Generator) -> Candidate:
        cfg = self.cfg
        n, m = self.context.num_cloudlets, self.context.num_vms
        p = cfg.num_particles
        # Batch evaluation only — no per-pair matrix needed.
        self.kernel = FitnessKernel(
            self.context.arrays, time_model="compute", max_matrix_cells=0
        )
        self.positions = rng.integers(0, m, size=(p, n), dtype=np.int64)
        fitness = self._fitness(self.positions)
        self.pbest = self.positions.copy()
        self.pbest_fit = fitness.copy()
        pull = cfg.cognitive + cfg.social
        self._p_pbest = (1 - cfg.inertia) * cfg.cognitive / pull
        self._p_gbest = (1 - cfg.inertia) * cfg.social / pull
        g = int(np.argmin(fitness))
        return Candidate(self.positions[g], float(fitness[g]), evaluations=p)

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate:
        cfg = self.cfg
        p, n = self.positions.shape
        m = self.context.num_vms
        with _TEL.span("pso.position_update"):
            u = rng.random((p, n))
            take_pbest = u < self._p_pbest
            take_gbest = (u >= self._p_pbest) & (u < self._p_pbest + self._p_gbest)
            positions = np.where(take_pbest, self.pbest, self.positions)
            positions = np.where(
                take_gbest, np.broadcast_to(incumbent_assignment, (p, n)), positions
            )
            mutate = rng.random((p, n)) < cfg.mutation_rate
            if mutate.any():
                positions = np.where(
                    mutate, rng.integers(0, m, size=(p, n), dtype=np.int64), positions
                )
        fitness = self._fitness(positions)
        improved = fitness < self.pbest_fit
        self.pbest[improved] = positions[improved]
        self.pbest_fit[improved] = fitness[improved]
        self.positions = positions
        g = int(np.argmin(self.pbest_fit))
        return Candidate(self.pbest[g], float(self.pbest_fit[g]), evaluations=p)


class ParticleSwarmScheduler(Scheduler):
    """Discrete PSO cloudlet scheduler.

    Parameters
    ----------
    num_particles:
        Swarm size.
    max_iterations:
        Velocity/position update rounds.
    inertia:
        Probability a component keeps its current value.
    cognitive:
        Relative pull toward the particle's personal best.
    social:
        Relative pull toward the global best.
    mutation_rate:
        Per-component probability of a uniform random jump (keeps the
        swarm from collapsing).
    """

    def __init__(
        self,
        num_particles: int = 30,
        max_iterations: int = 50,
        inertia: float = 0.5,
        cognitive: float = 1.5,
        social: float = 1.5,
        mutation_rate: float = 0.02,
    ) -> None:
        if num_particles < 2:
            raise ValueError(f"num_particles must be >= 2, got {num_particles}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0 <= inertia <= 1:
            raise ValueError(f"inertia must be in [0, 1], got {inertia}")
        if cognitive < 0 or social < 0:
            raise ValueError("cognitive and social must be non-negative")
        if cognitive + social == 0:
            raise ValueError("cognitive + social must be positive")
        if not 0 <= mutation_rate <= 1:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.num_particles = num_particles
        self.max_iterations = max_iterations
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social
        self.mutation_rate = mutation_rate

    @property
    def name(self) -> str:
        return "pso"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _PsoOperator(self, context)
        outcome = IterativeOptimizer(operator, self.max_iterations).run(context.rng)
        return optimizer_result(self, outcome, fitness_key="best_fitness")


__all__ = ["ParticleSwarmScheduler"]
