"""Hybrid PSO + gravitational-search (PSOGSA) scheduler.

Related-work extension (Alnusairi, Shahin & Daadaa, arXiv:1806.00329,
after Mirjalili & Hashim's PSOGSA): the exploitation memory of PSO is
grafted onto the exploration physics of GSA.  Each particle keeps a
continuous position in ``[0, num_vms - 1]^num_cloudlets`` (rounded per
component to a VM index for evaluation) and blends two pulls in one
velocity update::

    v = rand ∘ w·v + c1·rand ∘ a_gsa + c2·rand ∘ (gbest - x)

where ``a_gsa`` is GSA's :func:`~repro.schedulers.gsa.gravity` with the
whole population attracting (no elite shrinkage) and ``gbest`` is the
driver's incumbent, i.e. the social memory GSA itself lacks.  The cited
work is *binary* PSOGSA: positions are bit strings and a transfer
function maps velocity magnitude to a flip probability.  This integer
encoding keeps that discretisation pressure as a per-component
re-randomisation with probability ``mutation_rate`` (the same device the
discrete PSO baseline uses), which plays the bit-flip's role of keeping
the swarm from collapsing onto ``gbest``.

The swarm start, ``G(t)``, discretisation and batch evaluation are
GSA's :class:`~repro.schedulers.gsa.SwarmOperator`; the loop, incumbent
bookkeeping and convergence trace come from
:class:`repro.optim.IterativeOptimizer`.

Examples
--------
>>> from repro.schedulers.psogsa import PsoGsaScheduler
>>> from repro.schedulers.base import SchedulingContext
>>> from repro.workloads.heterogeneous import heterogeneous_scenario
>>> scenario = heterogeneous_scenario(4, 8, seed=0)
>>> scheduler = PsoGsaScheduler(num_particles=4, max_iterations=3)
>>> a = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=5))
>>> b = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=5))
>>> bool((a.assignment == b.assignment).all())
True
>>> a.assignment.shape == (8,) and int(a.assignment.max()) <= 3
True
>>> a.info["stopped"]
'max_iterations'
"""

from __future__ import annotations

import numpy as np

from repro.optim import IterativeOptimizer
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult, optimizer_result
from repro.schedulers.gsa import SwarmOperator, gravity


class _PsoGsaOperator(SwarmOperator):
    """One blended velocity/position update of the whole swarm per step."""

    span = "psogsa"

    def move(self, iteration, rng, incumbent_assignment) -> None:
        cfg = self.cfg
        p, n = self.positions.shape
        accel = gravity(
            self.positions, self.fitness, self.gravitational_constant(iteration), rng
        )
        gbest = np.asarray(incumbent_assignment, dtype=np.float64)
        self.velocities = (
            rng.random((p, n)) * cfg.inertia * self.velocities
            + cfg.accel_coeff * rng.random((p, n)) * accel
            + cfg.social_coeff
            * rng.random((p, n))
            * (gbest[None, :] - self.positions)
        )
        self.positions = np.clip(self.positions + self.velocities, 0.0, self.upper)
        mutate = rng.random((p, n)) < cfg.mutation_rate
        if mutate.any():
            self.positions = np.where(
                mutate, rng.uniform(0.0, self.upper, size=(p, n)), self.positions
            )


class PsoGsaScheduler(Scheduler):
    """Hybrid binary-PSOGSA cloudlet scheduler (integer encoding).

    Parameters
    ----------
    num_particles:
        Swarm size.
    max_iterations:
        Velocity/position update rounds.
    inertia:
        Weight of the previous velocity (``w``).
    accel_coeff:
        Weight of the GSA acceleration term (``c1``).
    social_coeff:
        Weight of the pull toward the incumbent/global best (``c2``).
    g0, alpha:
        Gravitational constant scale and decay exponent of the GSA term.
    mutation_rate:
        Per-component probability of a uniform re-randomisation — the
        integer-encoding stand-in for the binary transfer function.
    """

    def __init__(
        self,
        num_particles: int = 30,
        max_iterations: int = 50,
        inertia: float = 0.6,
        accel_coeff: float = 1.0,
        social_coeff: float = 1.5,
        g0: float = 1.0,
        alpha: float = 20.0,
        mutation_rate: float = 0.02,
    ) -> None:
        if num_particles < 2:
            raise ValueError(f"num_particles must be >= 2, got {num_particles}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0 <= inertia <= 1:
            raise ValueError(f"inertia must be in [0, 1], got {inertia}")
        if accel_coeff < 0 or social_coeff < 0:
            raise ValueError("accel_coeff and social_coeff must be non-negative")
        if accel_coeff + social_coeff == 0:
            raise ValueError("accel_coeff + social_coeff must be positive")
        if g0 <= 0:
            raise ValueError(f"g0 must be positive, got {g0}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if not 0 <= mutation_rate <= 1:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.num_particles = num_particles
        self.max_iterations = max_iterations
        self.inertia = inertia
        self.accel_coeff = accel_coeff
        self.social_coeff = social_coeff
        self.g0 = g0
        self.alpha = alpha
        self.mutation_rate = mutation_rate

    @property
    def name(self) -> str:
        return "psogsa"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _PsoGsaOperator(self, context, self.num_particles)
        outcome = IterativeOptimizer(operator, self.max_iterations).run(context.rng)
        return optimizer_result(self, outcome)


__all__ = ["PsoGsaScheduler"]
