"""IterativeOptimizer / ConvergenceTrace / MoveOperator driver tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim import Candidate, ConvergenceTrace, IterativeOptimizer, MoveOperator


class _ScriptedOperator(MoveOperator):
    """Replays a scripted sequence of (fitness, evaluations) candidates."""

    def __init__(self, initial, script):
        self.initial = initial
        self.script = script
        self.steps_taken = 0

    def initialize(self, rng):
        if self.initial is None:
            return None
        fitness, evals = self.initial
        return Candidate(np.array([0, 1]), fitness, evaluations=evals)

    def step(self, iteration, rng, incumbent_assignment, incumbent_fitness):
        self.steps_taken += 1
        if iteration >= len(self.script):
            return None
        fitness, evals = self.script[iteration]
        return Candidate(np.array([iteration, iteration]), fitness, evaluations=evals)

    def info(self):
        return {"steps_taken": self.steps_taken}


def _run(initial, script, **kwargs):
    op = _ScriptedOperator(initial, script)
    outcome = IterativeOptimizer(op, **kwargs).run(np.random.default_rng(0))
    return op, outcome


class TestStoppingPolicies:
    def test_runs_to_max_iterations(self):
        op, outcome = _run((10.0, 1), [(9.0, 1), (8.0, 1), (7.0, 1)], max_iterations=3)
        assert outcome.stopped == "max_iterations"
        assert outcome.iterations == 3
        assert outcome.fitness == 7.0
        assert outcome.evaluations == 4
        assert outcome.info["steps_taken"] == 3

    def test_stagnation_stop(self):
        op, outcome = _run(
            (10.0, 1),
            [(9.0, 1), (9.0, 1), (9.5, 1), (1.0, 1)],
            max_iterations=10,
            patience=2,
        )
        assert outcome.stopped == "stagnation"
        # improves at iter 1, then two stale iterations trip patience=2
        # before the scripted 1.0 is ever reached.
        assert outcome.iterations == 3
        assert outcome.fitness == 9.0

    def test_strict_improvement_ties_keep_incumbent(self):
        op, outcome = _run((5.0, 1), [(5.0, 1), (5.0, 1)], max_iterations=2)
        # Incumbent assignment stays the initial one on exact ties.
        np.testing.assert_array_equal(outcome.assignment, [0, 1])

    def test_no_candidate_at_all_raises(self):
        with pytest.raises(RuntimeError):
            _run(None, [], max_iterations=1)

    def test_invalid_params_rejected(self):
        op = _ScriptedOperator((1.0, 1), [])
        for kwargs in (
            {"max_iterations": 0},
            {"max_iterations": 1, "patience": 0},
            {"max_iterations": 1, "record_every": 0},
        ):
            with pytest.raises(ValueError):
                IterativeOptimizer(op, **kwargs)


class TestTrace:
    def test_trace_records_initial_and_final(self):
        _, outcome = _run((10.0, 1), [(9.0, 1), (8.0, 1)], max_iterations=2)
        trace = outcome.trace
        assert trace.iteration == [0, 1, 2]
        assert trace.best_fitness == [10.0, 9.0, 8.0]
        assert trace.evaluations == [1, 2, 3]
        assert len(trace) == 3
        assert trace.is_monotone()

    def test_record_every_thins_interior_points(self):
        _, outcome = _run(
            (10.0, 1),
            [(9.0, 1)] * 10,
            max_iterations=10,
            record_every=4,
        )
        assert outcome.trace.iteration == [0, 4, 8, 10]

    def test_monotone_detects_regression(self):
        trace = ConvergenceTrace()
        trace.record(0, 5.0, 1, 0.0)
        trace.record(1, 6.0, 2, 0.0)
        assert not trace.is_monotone()

    def test_as_dict_round_trip(self):
        _, outcome = _run((10.0, 1), [(9.0, 1)], max_iterations=1)
        d = outcome.trace.as_dict()
        assert set(d) == {"iteration", "best_fitness", "evaluations", "wall_clock_s"}
        assert d["best_fitness"] == [10.0, 9.0]


class TestFinalize:
    def test_finalize_override_wins(self):
        class _Op(_ScriptedOperator):
            def finalize(self, incumbent_assignment, incumbent_fitness):
                return np.array([7, 7]), 123.0

        op = _Op((10.0, 1), [(9.0, 1)])
        outcome = IterativeOptimizer(op, max_iterations=1).run(np.random.default_rng(0))
        np.testing.assert_array_equal(outcome.assignment, [7, 7])
        assert outcome.fitness == 123.0
