"""Genetic Algorithm scheduler.

Related-work baseline (Ge & Wei 2010, reference [6] of the paper): a GA
that "scans the entire job queue" and evolves whole assignment vectors to
minimise batch makespan.

Chromosome: one VM index per cloudlet.  Operators: tournament selection,
uniform crossover, per-gene uniform mutation, elitist survival of the best
individual.  All operators are vectorised across the population, with the
per-generation fitness evaluated in one
:meth:`repro.optim.FitnessKernel.batch_makespans` call and the generation
loop driven by :class:`repro.optim.IterativeOptimizer`.

The paper notes GA converges too slowly for cloud scheduling [17]; keeping
this implementation around lets the ablation benches quantify exactly that
trade-off against ACO/HBO — now with per-generation convergence traces.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IterativeOptimizer, MoveOperator
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult, optimizer_result


class _GaOperator(MoveOperator):
    """One generation (selection, crossover, mutation, elitism) per step."""

    def __init__(self, cfg: "GeneticAlgorithmScheduler", context: SchedulingContext) -> None:
        self.cfg = cfg
        self.context = context

    def initialize(self, rng: np.random.Generator) -> Candidate:
        cfg = self.cfg
        n, m = self.context.num_cloudlets, self.context.num_vms
        p = cfg.population_size
        self.kernel = FitnessKernel(
            self.context.arrays, time_model="compute", max_matrix_cells=0
        )
        self.population = rng.integers(0, m, size=(p, n), dtype=np.int64)
        # Seed one chromosome with round-robin: gives the GA a balanced
        # starting point, mirroring common practice.
        self.population[0] = np.arange(n, dtype=np.int64) % m
        self.fitness = self.kernel.batch_makespans(self.population)
        g = int(np.argmin(self.fitness))
        return Candidate(self.population[g], float(self.fitness[g]), evaluations=p)

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate:
        cfg = self.cfg
        population, fitness = self.population, self.fitness
        p, n = population.shape
        m = self.context.num_vms

        with _TEL.span("ga.variation"):
            # Tournament selection (vectorised): p tournaments of size k.
            entrants = rng.integers(0, p, size=(p, cfg.tournament_size))
            winners = entrants[np.arange(p), np.argmin(fitness[entrants], axis=1)]
            parents = population[winners]

            # Uniform crossover on consecutive pairs.
            children = parents.copy()
            pairs = p // 2
            do_cross = rng.random(pairs) < cfg.crossover_rate
            mask = rng.random((pairs, n)) < 0.5
            a = children[0::2]
            b = children[1::2]
            swap = mask & do_cross[:, None]
            a_swapped = np.where(swap, b, a)
            b_swapped = np.where(swap, a, b)
            children[0::2] = a_swapped
            children[1::2] = b_swapped

            # Mutation.
            mutate = rng.random((p, n)) < cfg.mutation_rate
            if mutate.any():
                children = np.where(
                    mutate, rng.integers(0, m, size=(p, n), dtype=np.int64), children
                )

        with _TEL.span("ga.fitness"):
            child_fitness = self.kernel.batch_makespans(children)

        # Elitism: keep the best `elitism` incumbents.
        if cfg.elitism:
            elite_idx = np.argsort(fitness)[: cfg.elitism]
            worst_children = np.argsort(child_fitness)[::-1][: cfg.elitism]
            children[worst_children] = population[elite_idx]
            child_fitness[worst_children] = fitness[elite_idx]

        self.population = children
        self.fitness = child_fitness
        g = int(np.argmin(child_fitness))
        return Candidate(children[g], float(child_fitness[g]), evaluations=p)

    def finalize(
        self, incumbent_assignment: np.ndarray | None, incumbent_fitness: float
    ) -> tuple[np.ndarray, float]:
        # Historical GA semantics: the answer is the best chromosome of the
        # *final* population (identical fitness to the incumbent under
        # elitism, but tie-breaking picks the lowest final index).
        best = int(np.argmin(self.fitness))
        return self.population[best], float(self.fitness[best])


class GeneticAlgorithmScheduler(Scheduler):
    """GA cloudlet scheduler minimising estimated makespan.

    Parameters
    ----------
    population_size:
        Number of chromosomes (must be even for pairwise crossover).
    generations:
        Evolution rounds.
    crossover_rate:
        Probability a pair undergoes uniform crossover.
    mutation_rate:
        Per-gene probability of a uniform random reset.
    tournament_size:
        Individuals per selection tournament.
    elitism:
        Copies of the best chromosome preserved each generation.
    """

    def __init__(
        self,
        population_size: int = 40,
        generations: int = 60,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.01,
        tournament_size: int = 3,
        elitism: int = 1,
    ) -> None:
        if population_size < 2 or population_size % 2:
            raise ValueError(
                f"population_size must be an even number >= 2, got {population_size}"
            )
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if not 0 <= crossover_rate <= 1:
            raise ValueError(f"crossover_rate must be in [0, 1], got {crossover_rate}")
        if not 0 <= mutation_rate <= 1:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        if tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {tournament_size}")
        if not 0 <= elitism < population_size:
            raise ValueError("elitism must be in [0, population_size)")
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.tournament_size = tournament_size
        self.elitism = elitism

    @property
    def name(self) -> str:
        return "ga"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _GaOperator(self, context)
        outcome = IterativeOptimizer(operator, self.generations).run(context.rng)
        return optimizer_result(self, outcome, iterations_key="generations")


__all__ = ["GeneticAlgorithmScheduler"]
