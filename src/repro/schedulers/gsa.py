"""Gravitational Search Algorithm scheduler.

Related-work extension (Mamalis & Perlitis, arXiv:2311.07004, building on
Rashedi et al.'s GSA): a population of *agents* moves through the
continuous space ``[0, num_vms - 1]^num_cloudlets``; an agent's position,
rounded per component to the nearest integer, is a complete cloudlet→VM
assignment.  Physics of one iteration:

* **mass from fitness** — agent masses are the min-max normalised
  makespans ``m_a = (worst - fit_a) / (worst - best)`` (all-equal
  populations get uniform mass), normalised to sum to one;
* **force accumulation** — every agent is pulled toward the ``Kbest``
  fittest agents with force ``G(t) * M_b * (x_b - x_a) / (R_ab + eps)``
  per dimension, each pair weighted by one uniform draw.  The quadratic
  pairwise sum is folded into two matrix products (weights × elite
  positions), so the accumulation is O(p² + p·n) with no (p, p, n)
  intermediate;
* **velocity / position update** — ``v = rand ∘ v + a`` with a fresh
  per-component uniform, then ``x += v`` clipped back into the box;
  ``G(t) = G0 · exp(-alpha · t / T)`` decays the pull and ``Kbest``
  shrinks linearly from the whole population to a single elite, moving
  the swarm from exploration to exploitation.

Fitness is the estimated batch makespan, evaluated for the whole
discretised population at once by
:meth:`repro.optim.FitnessKernel.batch_makespans`; the iteration loop,
incumbent bookkeeping and convergence trace come from
:class:`repro.optim.IterativeOptimizer`.  PSOGSA reuses the swarm
machinery (:class:`SwarmOperator`) and the force (:func:`gravity`).

Examples
--------
Deterministic given ``(constructor args, context)`` — all randomness flows
through the context's generator:

>>> from repro.schedulers.gsa import GravitationalSearchScheduler
>>> from repro.schedulers.base import SchedulingContext
>>> from repro.workloads.homogeneous import homogeneous_scenario
>>> scenario = homogeneous_scenario(2, 6, seed=0)
>>> scheduler = GravitationalSearchScheduler(num_agents=4, max_iterations=3)
>>> a = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=1))
>>> b = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=1))
>>> bool((a.assignment == b.assignment).all())
True
>>> a.assignment.shape == (6,) and set(a.assignment.tolist()) <= {0, 1}
True
>>> a.info["iterations"]
3
"""

from __future__ import annotations

import abc

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IterativeOptimizer, MoveOperator
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult, optimizer_result

#: softening constant keeping the force finite at zero distance.
_EPS = 1e-12


def discretise(positions: np.ndarray, num_vms: int) -> np.ndarray:
    """Round continuous positions to VM indices in ``[0, num_vms - 1]``."""
    return np.clip(np.rint(positions), 0, num_vms - 1).astype(np.int64)


def agent_masses(fitness: np.ndarray) -> np.ndarray:
    """GSA masses of a population: min-max normalised, summing to one.

    Lower makespan → heavier agent.  A population with identical fitness
    collapses the min-max span; every agent then gets equal mass.
    """
    best = float(fitness.min())
    worst = float(fitness.max())
    if worst > best:
        raw = (worst - fitness) / (worst - best)
    else:
        raw = np.ones_like(fitness)
    return raw / float(raw.sum())


def kbest_size(iteration: int, max_iterations: int, population: int) -> int:
    """Elite-set size at ``iteration``: linear decay population → 1."""
    if max_iterations <= 1:
        return population
    frac = iteration / (max_iterations - 1)
    return max(1, int(round(population - (population - 1) * frac)))


def gravity(
    X: np.ndarray,
    fitness: np.ndarray,
    G: float,
    rng: np.random.Generator,
    elite: np.ndarray | None = None,
) -> np.ndarray:
    """Mass-weighted pull of every agent toward the ``elite`` agents.

    ``a_i = G · Σ_b w_ib · M_b · (x_b - x_i) / (R_ib + eps)`` with one
    uniform draw ``w_ib`` per pair — the agent's own mass cancels between
    force and acceleration, and the self-pair contributes nothing
    (``x_i - x_i = 0``).  ``elite=None`` lets the whole population
    attract.  It multiplies ``X`` by itself, not by a gathered copy:
    numpy sends ``X @ X.T`` to a symmetric kernel that rounds differently
    from the general product, and PSOGSA's decisions rest on it.
    """
    masses = agent_masses(fitness)
    sq = np.einsum("ij,ij->i", X, X)
    if elite is None:
        E, sq_e, m_e = X, sq, masses
    else:
        E, sq_e, m_e = X[elite], sq[elite], masses[elite]
    # Euclidean distances to the attracting agents via the Gram trick.
    r2 = sq[:, None] + sq_e[None, :] - 2.0 * (X @ E.T)
    dist = np.sqrt(np.maximum(r2, 0.0))
    weights = rng.random((X.shape[0], E.shape[0])) * m_e[None, :] / (dist + _EPS)
    return G * (weights @ E - weights.sum(axis=1)[:, None] * X)


class SwarmOperator(MoveOperator):
    """Agents at continuous positions in ``[0, num_vms - 1]^num_cloudlets``.

    What GSA and PSOGSA share: the uniform start with zero velocities,
    ``G(t) = G0 · exp(-alpha · t / T)``, and a step that runs :meth:`move`
    then discretises and batch-evaluates the population.
    """

    #: telemetry span prefix, e.g. ``"gsa"``.
    span: str

    def __init__(self, cfg, context: SchedulingContext, size: int) -> None:
        self.cfg = cfg
        self.context = context
        self.size = size
        self.upper = float(context.num_vms - 1)

    def initialize(self, rng: np.random.Generator) -> Candidate:
        p, n = self.size, self.context.num_cloudlets
        self.kernel = FitnessKernel(
            self.context.arrays, time_model="compute", max_matrix_cells=0
        )
        self.positions = rng.uniform(0.0, self.upper, size=(p, n))
        self.velocities = np.zeros((p, n))
        ints = discretise(self.positions, self.context.num_vms)
        self.fitness = self.kernel.batch_makespans(ints)
        return self._best(ints)

    def gravitational_constant(self, iteration: int) -> float:
        """``G(t)`` at ``iteration``."""
        cfg = self.cfg
        return cfg.g0 * float(np.exp(-cfg.alpha * iteration / cfg.max_iterations))

    @abc.abstractmethod
    def move(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
    ) -> None:
        """Update ``velocities`` and ``positions`` in place."""

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate:
        with _TEL.span(f"{self.span}.position_update"):
            self.move(iteration, rng, incumbent_assignment)
        ints = discretise(self.positions, self.context.num_vms)
        with _TEL.span(f"{self.span}.fitness"):
            self.fitness = self.kernel.batch_makespans(ints)
        return self._best(ints)

    def _best(self, ints: np.ndarray) -> Candidate:
        g = int(np.argmin(self.fitness))
        return Candidate(ints[g], float(self.fitness[g]), evaluations=self.size)


class _GsaOperator(SwarmOperator):
    """One velocity/position update of the whole agent population per step."""

    span = "gsa"

    def move(self, iteration, rng, incumbent_assignment) -> None:
        p, n = self.positions.shape
        k = kbest_size(iteration, self.cfg.max_iterations, p)
        elite = np.argsort(self.fitness, kind="stable")[:k]
        accel = gravity(
            self.positions, self.fitness, self.gravitational_constant(iteration), rng, elite
        )
        self.velocities = rng.random((p, n)) * self.velocities + accel
        self.positions = np.clip(self.positions + self.velocities, 0.0, self.upper)


class GravitationalSearchScheduler(Scheduler):
    """GSA cloudlet scheduler minimising estimated makespan.

    Parameters
    ----------
    num_agents:
        Population size.
    max_iterations:
        Velocity/position update rounds.
    g0:
        Initial gravitational constant ``G(0)``.
    alpha:
        Decay exponent of ``G(t) = G0 · exp(-alpha · t / T)``.
    """

    def __init__(
        self,
        num_agents: int = 30,
        max_iterations: int = 50,
        g0: float = 1.0,
        alpha: float = 20.0,
    ) -> None:
        if num_agents < 2:
            raise ValueError(f"num_agents must be >= 2, got {num_agents}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if g0 <= 0:
            raise ValueError(f"g0 must be positive, got {g0}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.num_agents = num_agents
        self.max_iterations = max_iterations
        self.g0 = g0
        self.alpha = alpha

    @property
    def name(self) -> str:
        return "gsa"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _GsaOperator(self, context, self.num_agents)
        outcome = IterativeOptimizer(operator, self.max_iterations).run(context.rng)
        return optimizer_result(self, outcome)


__all__ = [
    "GravitationalSearchScheduler",
    "SwarmOperator",
    "agent_masses",
    "discretise",
    "gravity",
    "kbest_size",
]
