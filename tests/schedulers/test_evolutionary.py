"""PSO and GA schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.ga import GeneticAlgorithmScheduler
from repro.schedulers.pso import ParticleSwarmScheduler
from repro.schedulers.random_assign import RandomScheduler
from tests.schedulers.oracles import estimate_makespan


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


class TestPsoValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_particles": 1},
            {"max_iterations": 0},
            {"inertia": 1.5},
            {"cognitive": -1.0},
            {"cognitive": 0.0, "social": 0.0},
            {"mutation_rate": 2.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ParticleSwarmScheduler(**kwargs)


class TestPsoBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = ParticleSwarmScheduler(num_particles=10, max_iterations=10).schedule(
            ctx(small_hetero)
        )
        validate_assignment(result.assignment, 60, 12)
        assert result.info["best_fitness"] > 0

    def test_beats_random_baseline(self, small_hetero):
        context = ctx(small_hetero)
        arr = context.arrays
        pso = ParticleSwarmScheduler(num_particles=20, max_iterations=30).schedule(context)
        rnd = RandomScheduler().schedule(ctx(small_hetero, seed=99))
        assert estimate_makespan(
            pso.assignment, arr.cloudlet_length, arr.vm_mips
        ) < estimate_makespan(rnd.assignment, arr.cloudlet_length, arr.vm_mips)

    def test_deterministic(self, small_hetero):
        a = ParticleSwarmScheduler(num_particles=8, max_iterations=5).schedule(
            ctx(small_hetero, 3)
        )
        b = ParticleSwarmScheduler(num_particles=8, max_iterations=5).schedule(
            ctx(small_hetero, 3)
        )
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestGaValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},  # odd
            {"population_size": 0},
            {"generations": 0},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"tournament_size": 0},
            {"elitism": 40},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneticAlgorithmScheduler(**kwargs)


class TestGaBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = GeneticAlgorithmScheduler(population_size=10, generations=10).schedule(
            ctx(small_hetero)
        )
        validate_assignment(result.assignment, 60, 12)

    def test_fitness_improves_over_generations(self, small_hetero):
        context = ctx(small_hetero)
        arr = context.arrays
        short = GeneticAlgorithmScheduler(population_size=20, generations=1).schedule(
            ctx(small_hetero, 5)
        )
        long = GeneticAlgorithmScheduler(population_size=20, generations=60).schedule(
            ctx(small_hetero, 5)
        )
        assert long.info["best_makespan_estimate"] <= short.info["best_makespan_estimate"]

    def test_beats_random_baseline(self, small_hetero):
        context = ctx(small_hetero)
        arr = context.arrays
        ga = GeneticAlgorithmScheduler(population_size=20, generations=40).schedule(context)
        rnd = RandomScheduler().schedule(ctx(small_hetero, seed=99))
        assert estimate_makespan(
            ga.assignment, arr.cloudlet_length, arr.vm_mips
        ) < estimate_makespan(rnd.assignment, arr.cloudlet_length, arr.vm_mips)

    def test_deterministic(self, small_hetero):
        a = GeneticAlgorithmScheduler(population_size=8, generations=5).schedule(
            ctx(small_hetero, 3)
        )
        b = GeneticAlgorithmScheduler(population_size=8, generations=5).schedule(
            ctx(small_hetero, 3)
        )
        np.testing.assert_array_equal(a.assignment, b.assignment)
