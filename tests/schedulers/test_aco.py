"""Ant Colony Optimization scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.telemetry import TELEMETRY
from repro.schedulers.aco import AntColonyScheduler, _ColonyOperator
from repro.schedulers.base import SchedulingContext, validate_assignment
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario

from tests.schedulers.oracles import aco_pheromone_update_oracle, aco_shared_construct_oracle


def ctx(scenario, seed=0):
    return SchedulingContext.from_scenario(scenario, seed=seed)


def small_aco(**kwargs):
    defaults = dict(num_ants=8, max_iterations=3)
    defaults.update(kwargs)
    return AntColonyScheduler(**defaults)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_ants": 0},
            {"rho": 1.5},
            {"rho": -0.1},
            {"alpha": -1.0},
            {"q": 0.0},
            {"initial_pheromone": 0.0},
            {"max_iterations": 0},
            {"tabu": "sometimes"},
            {"pheromone": "cloud"},
            {"patience": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AntColonyScheduler(**kwargs)

    def test_matrix_cap_enforced(self, small_hetero):
        sched = small_aco(max_matrix_cells=10)
        with pytest.raises(ValueError, match="max_matrix_cells"):
            sched.schedule(ctx(small_hetero))

    def test_vm_layout_ignores_matrix_cap(self, small_hetero):
        sched = small_aco(max_matrix_cells=10, pheromone="vm")
        result = sched.schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)


class TestBehaviour:
    def test_assignment_valid(self, small_hetero):
        result = small_aco().schedule(ctx(small_hetero))
        validate_assignment(result.assignment, 60, 12)

    def test_deterministic_given_context_seed(self, small_hetero):
        a = small_aco().schedule(ctx(small_hetero, seed=4)).assignment
        b = small_aco().schedule(ctx(small_hetero, seed=4)).assignment
        np.testing.assert_array_equal(a, b)

    def test_info_fields(self, small_hetero):
        result = small_aco().schedule(ctx(small_hetero))
        assert result.info["iterations"] == 3
        assert result.info["best_tour_length"] > 0
        assert result.info["pheromone_layout"] == "pair"

    def test_patience_stops_early(self, small_hetero):
        result = small_aco(max_iterations=50, patience=1).schedule(ctx(small_hetero))
        assert result.info["iterations"] < 50

    def test_prefers_fast_vms(self):
        # One VM is 8x faster; the static heuristic must send it more work.
        scenario = heterogeneous_scenario(num_vms=10, num_cloudlets=200, seed=2)
        context = ctx(scenario)
        result = small_aco().schedule(context)
        counts = np.bincount(result.assignment, minlength=10)
        mips = context.arrays.vm_mips
        fastest = int(np.argmax(mips))
        slowest = int(np.argmin(mips))
        assert counts[fastest] > counts[slowest]

    def test_beats_round_robin_makespan_estimate(self, small_hetero):
        from tests.schedulers.oracles import estimate_makespan

        context = ctx(small_hetero)
        arr = context.arrays
        aco = small_aco(max_iterations=5).schedule(context)
        rr = RoundRobinScheduler().schedule(ctx(small_hetero))
        mk_aco = estimate_makespan(aco.assignment, arr.cloudlet_length, arr.vm_mips)
        mk_rr = estimate_makespan(rr.assignment, arr.cloudlet_length, arr.vm_mips)
        assert mk_aco < mk_rr

    def test_tabu_pass_gives_near_uniform_counts(self, small_homog):
        result = small_aco(tabu="pass").schedule(ctx(small_homog))
        counts = np.bincount(result.assignment, minlength=10)
        # 55 cloudlets over 10 VMs with per-pass tabu: 5 or 6 each.
        assert counts.min() >= 5
        assert counts.max() <= 6

    def test_load_aware_valid_and_balanced(self, small_hetero):
        context = ctx(small_hetero)
        result = small_aco(load_aware=True).schedule(context)
        validate_assignment(result.assignment, 60, 12)

    def test_load_aware_with_tabu_pass(self, small_hetero):
        result = small_aco(load_aware=True, tabu="pass").schedule(ctx(small_hetero))
        counts = np.bincount(result.assignment, minlength=12)
        assert counts.max() - counts.min() <= 1

    def test_vm_layout_matches_pair_layout_statistically(self, small_homog):
        # On a homogeneous batch the two layouts are the same model; both
        # must produce optimal near-uniform assignments under tabu.
        for layout in ("pair", "vm"):
            result = small_aco(tabu="pass", pheromone=layout).schedule(ctx(small_homog))
            counts = np.bincount(result.assignment, minlength=10)
            assert counts.max() - counts.min() <= 1

    def test_single_vm(self):
        scenario = heterogeneous_scenario(num_vms=1, num_cloudlets=5, num_datacenters=1, seed=0)
        result = small_aco().schedule(ctx(scenario))
        np.testing.assert_array_equal(result.assignment, np.zeros(5, dtype=np.int64))


class TestSharedConstructionOracle:
    """The shared-distribution construction and the deposit against the
    step-by-step reference loops in ``tests/schedulers/oracles.py``.

    ``_ColonyState.construct`` folds each ant's loads after its draw loop
    and the per-pair layout deposits through flat indices; both must
    reproduce the reference bit for bit, also after earlier updates, and
    report the same kernel row counters.
    """

    SHAPES = {"n<m": (12, 5), "n>m": (5, 40)}
    FAMILIES = {"hetero": heterogeneous_scenario, "homog": homogeneous_scenario}
    PRIOR_UPDATES = 3

    @staticmethod
    def _rows(run):
        """``run()``'s result and the ``kernel.rows_*`` counters it added."""
        before = TELEMETRY.snapshot()
        result = run()
        added = TELEMETRY.snapshot().diff(before).counters
        return result, {k: v for k, v in added.items() if k.startswith("kernel.rows_")}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("ants", [1, 7, 50])
    @pytest.mark.parametrize("pheromone", ["pair", "vm"])
    def test_construct_and_update_match_the_oracle(self, family, shape, ants, pheromone):
        num_vms, num_cloudlets = self.SHAPES[shape]
        scenario = self.FAMILIES[family](num_vms, num_cloudlets, num_datacenters=1, seed=3)
        cfg = AntColonyScheduler(num_ants=ants, pheromone=pheromone)
        fast, slow = (_ColonyOperator(cfg, ctx(scenario)) for _ in range(2))
        fast.initialize(None)
        slow.initialize(None)
        fast_rng, slow_rng = np.random.default_rng(11), np.random.default_rng(11)
        best, best_length = None, np.inf
        with obs.enabled():
            for update in range(self.PRIOR_UPDATES + 1):
                (got, got_lengths), got_rows = self._rows(
                    lambda: fast.state.construct(fast_rng)
                )
                (want, want_lengths), want_rows = self._rows(
                    lambda: aco_shared_construct_oracle(slow.state, slow_rng)
                )
                assert got.tobytes() == want.tobytes(), update
                assert got_lengths.tobytes() == want_lengths.tobytes(), update
                assert got_rows == want_rows and want_rows["kernel.rows_memoised"] > 0
                if update == self.PRIOR_UPDATES:
                    break
                k = int(np.argmin(got_lengths))
                if got_lengths[k] < best_length:
                    best, best_length = got[k].copy(), float(got_lengths[k])
                fast.state.update_pheromone(got, got_lengths, best, best_length)
                aco_pheromone_update_oracle(slow.state, want, want_lengths, best, best_length)
                assert fast.state.tau.tobytes() == slow.state.tau.tobytes(), update
