"""FitnessKernel and IncrementalLoads unit/property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import FitnessKernel, IncrementalLoads
from repro.workloads.heterogeneous import heterogeneous_scenario
from tests.schedulers.oracles import estimate_makespan, estimated_vm_finish_times


@pytest.fixture(scope="module")
def arrays():
    return heterogeneous_scenario(num_vms=7, num_cloudlets=40, seed=3).arrays()


def _random_assignment(arrays, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, arrays.num_vms, size=arrays.num_cloudlets, dtype=np.int64)


class TestTimeAccess:
    @pytest.mark.parametrize("time_model", ["compute", "eq6"])
    def test_matrix_vs_row_fallback_agree(self, arrays, time_model):
        with_matrix = FitnessKernel(arrays, time_model=time_model)
        without = FitnessKernel(arrays, time_model=time_model, max_matrix_cells=0)
        assert with_matrix.matrix is not None
        assert without.matrix is None
        for i in range(arrays.num_cloudlets):
            np.testing.assert_allclose(with_matrix.row(i), without.row(i), rtol=1e-12)

    def test_memory_cap_disables_matrix(self, arrays):
        n_cells = arrays.num_cloudlets * arrays.num_vms
        assert FitnessKernel(arrays, max_matrix_cells=n_cells).matrix is not None
        assert FitnessKernel(arrays, max_matrix_cells=n_cells - 1).matrix is None

    def test_compute_time_is_length_over_capacity(self, arrays):
        kernel = FitnessKernel(arrays, time_model="compute")
        i, j = 3, 5
        expected = arrays.cloudlet_length[i] / (arrays.vm_mips[j] * arrays.vm_pes[j])
        assert kernel.time(i, j) == pytest.approx(expected, rel=1e-12)

    def test_eq6_row_matches_expected_exec_time(self, arrays):
        kernel = FitnessKernel(arrays, time_model="eq6", max_matrix_cells=0)
        for i in (0, 11, 39):
            np.testing.assert_allclose(
                kernel.row(i), arrays.expected_exec_time(i), rtol=1e-12
            )

    def test_rejects_bad_params(self, arrays):
        with pytest.raises(ValueError):
            FitnessKernel(arrays, time_model="nope")
        with pytest.raises(ValueError):
            FitnessKernel(arrays, max_matrix_cells=-1)


class TestWholeAssignment:
    @pytest.mark.parametrize("time_model", ["compute", "eq6"])
    @pytest.mark.parametrize("max_cells", [10_000_000, 0])
    def test_loads_match_reference_sums(self, arrays, time_model, max_cells):
        kernel = FitnessKernel(arrays, time_model=time_model, max_matrix_cells=max_cells)
        assignment = _random_assignment(arrays, seed=1)
        times = np.array([kernel.time(i, v) for i, v in enumerate(assignment)])
        expected = estimated_vm_finish_times(assignment, times, arrays.num_vms)
        np.testing.assert_allclose(kernel.loads_of(assignment), expected, rtol=1e-12)
        assert kernel.makespan(assignment) == pytest.approx(expected.max(), rel=1e-12)

    def test_compute_makespan_matches_estimate_makespan(self, arrays):
        kernel = FitnessKernel(arrays, time_model="compute")
        assignment = _random_assignment(arrays, seed=2)
        expected = estimate_makespan(
            assignment, arrays.cloudlet_length, arrays.vm_mips, arrays.vm_pes
        )
        assert kernel.makespan(assignment) == pytest.approx(expected, rel=1e-12)


class TestBatchEvaluation:
    @pytest.mark.parametrize("time_model", ["compute", "eq6"])
    @pytest.mark.parametrize("max_cells", [10_000_000, 0])
    def test_batch_matches_serial_makespans(self, arrays, time_model, max_cells):
        kernel = FitnessKernel(arrays, time_model=time_model, max_matrix_cells=max_cells)
        rng = np.random.default_rng(9)
        positions = rng.integers(0, arrays.num_vms, size=(6, arrays.num_cloudlets))
        batch = kernel.batch_makespans(positions)
        serial = np.array([kernel.makespan(p) for p in positions])
        np.testing.assert_allclose(batch, serial, rtol=1e-12)

    def test_compute_batch_loads_bit_equal_for_any_block_order(self, arrays):
        # One kernel serves blocks that grow, shrink and grow past every
        # earlier one; each must equal a fresh weighted bincount.
        kernel = FitnessKernel(arrays, time_model="compute")
        rng = np.random.default_rng(11)
        n, m = arrays.num_cloudlets, arrays.num_vms
        for p in (1, 6, 3, 6, 9, 2):
            positions = rng.integers(0, m, size=(p, n))
            expected = np.bincount(
                (np.arange(p)[:, None] * m + positions).ravel(),
                weights=np.broadcast_to(arrays.cloudlet_length, (p, n)).ravel(),
                minlength=p * m,
            ).reshape(p, m)
            assert kernel.batch_loads(positions).tobytes() == expected.tobytes(), p

    def test_uniform_batch_matches_general_path_for_identical_cloudlets(self):
        from repro.workloads.homogeneous import homogeneous_scenario

        arrays = homogeneous_scenario(num_vms=6, num_cloudlets=30, seed=4).arrays()
        kernel = FitnessKernel(arrays, time_model="eq6")
        rng = np.random.default_rng(5)
        positions = rng.integers(0, 6, size=(5, 30))
        np.testing.assert_allclose(
            kernel.uniform_batch_makespans(positions),
            kernel.batch_makespans(positions),
            rtol=1e-12,
        )

    def test_evaluation_counter_tracks_members(self, arrays):
        kernel = FitnessKernel(arrays)
        assert kernel.evaluations == 0
        positions = np.zeros((4, arrays.num_cloudlets), dtype=np.int64)
        kernel.batch_makespans(positions)
        assert kernel.evaluations == 4
        kernel.makespan(positions[0])
        assert kernel.evaluations == 5


class TestImbalance:
    def test_imbalance_formula(self):
        loads = np.array([1.0, 2.0, 3.0])
        assert FitnessKernel.imbalance_of_loads(loads) == pytest.approx(1.0)
        assert FitnessKernel.imbalance_of_loads(np.zeros(3)) == 0.0


class TestIncrementalLoads:
    def test_propose_commit_matches_full_recompute(self, arrays):
        kernel = FitnessKernel(arrays)
        state = IncrementalLoads(kernel, _random_assignment(arrays, seed=6))
        rng = np.random.default_rng(7)
        for _ in range(200):
            i = int(rng.integers(arrays.num_cloudlets))
            v = int(rng.integers(arrays.num_vms))
            candidate = state.propose(i, v)
            if candidate is None:
                continue
            if rng.random() < 0.5:
                state.commit()
            else:
                state.reject()
            reference = kernel.loads_of(state.assignment)
            np.testing.assert_allclose(state.loads, reference, rtol=1e-12)
            assert state.makespan == pytest.approx(reference.max(), rel=1e-12)

    def test_candidate_equals_post_move_makespan(self, arrays):
        kernel = FitnessKernel(arrays)
        state = IncrementalLoads(kernel, _random_assignment(arrays, seed=8))
        rng = np.random.default_rng(9)
        for _ in range(100):
            i = int(rng.integers(arrays.num_cloudlets))
            v = int(rng.integers(arrays.num_vms))
            moved = state.assignment.copy()
            candidate = state.propose(i, v)
            if candidate is None:
                continue
            moved[i] = v
            assert candidate == pytest.approx(
                kernel.loads_of(moved).max(), rel=1e-12
            )
            state.reject()

    def test_noop_move_returns_none(self, arrays):
        kernel = FitnessKernel(arrays)
        state = IncrementalLoads(kernel, np.zeros(arrays.num_cloudlets, dtype=np.int64))
        assert state.propose(0, 0) is None

    def test_pending_protocol_enforced(self, arrays):
        kernel = FitnessKernel(arrays)
        state = IncrementalLoads(kernel, _random_assignment(arrays, seed=10))
        with pytest.raises(RuntimeError):
            state.commit()
        with pytest.raises(RuntimeError):
            state.reject()
        assert state.propose(0, (int(state.assignment[0]) + 1) % arrays.num_vms)
        with pytest.raises(RuntimeError):
            state.propose(1, 0)
        state.reject()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        moves=st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 6), st.booleans()),
            min_size=1,
            max_size=60,
        ),
    )
    def test_property_no_drift_under_any_move_sequence(self, seed, moves):
        arrays = heterogeneous_scenario(num_vms=7, num_cloudlets=40, seed=3).arrays()
        kernel = FitnessKernel(arrays)
        state = IncrementalLoads(kernel, _random_assignment(arrays, seed=seed))
        for i, v, accept in moves:
            if state.propose(i, v) is None:
                continue
            if accept:
                state.commit()
            else:
                state.reject()
        reference = kernel.loads_of(state.assignment)
        np.testing.assert_allclose(state.loads, reference, rtol=1e-9)
        assert state.makespan == pytest.approx(reference.max(), rel=1e-9)
