"""Shared fitness substrate for the metaheuristic schedulers.

:class:`FitnessKernel` owns the per-(cloudlet, VM) execution-time data and
every way the optimizers evaluate it:

* the full time matrix when ``num_cloudlets * num_vms`` fits under the
  memory cap, otherwise memoised per-cloudlet rows (rows collapse to a
  handful of cache entries for homogeneous batches);
* vectorised *batch* evaluation of whole populations (one ``bincount``
  over offset indices, the PSO/GA inner loop);
* per-VM load accumulators plus :class:`IncrementalLoads`, the
  O(1)-amortised *delta* evaluator for single-assignment moves (the
  annealing inner loop).

Two time models are supported, matching what the schedulers historically
optimised:

* ``"compute"`` — ``length_i / (mips_j * pes_j)``: pure compute time, the
  PSO/GA/annealing fitness.
* ``"eq6"`` — the paper's Eq. 6 expected completion time
  ``length_i / (pes_j * mips_j) + file_size_i / bw_j``: the ACO heuristic
  distance and tour-quality measure.

Numerical contract: every evaluation path reproduces, bit for bit, the
arithmetic the schedulers used before the refactor (division layout,
``bincount`` summation order, ``max`` reductions), so golden-seed
assignments are unchanged.  In particular the ``"eq6"`` *matrix* is built
with :meth:`ScenarioArrays.exec_time_matrix` (outer product with
reciprocals) while ``"eq6"`` *rows* use
:meth:`ScenarioArrays.expected_exec_time` (direct division) — the same
pair/vm-layout split ACO has always had.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.workloads.spec import ScenarioArrays

TimeModel = Literal["compute", "eq6"]

#: default cap on ``num_cloudlets * num_vms`` cells for the full matrix
#: (one float64 matrix at 1e7 cells = 80 MB).
DEFAULT_MAX_MATRIX_CELLS = 10_000_000


class FitnessKernel:
    """Execution-time store + makespan evaluation engine for one context.

    Parameters
    ----------
    arrays:
        The scenario's vectorised view.
    time_model:
        ``"compute"`` or ``"eq6"`` (see module docstring).
    max_matrix_cells:
        Build the full time matrix only when ``num_cloudlets * num_vms``
        does not exceed this; ``0`` forces the per-row fallback.
    """

    def __init__(
        self,
        arrays: ScenarioArrays,
        time_model: TimeModel = "compute",
        max_matrix_cells: int = DEFAULT_MAX_MATRIX_CELLS,
    ) -> None:
        if time_model not in ("compute", "eq6"):
            raise ValueError(f"time_model must be 'compute' or 'eq6', got {time_model!r}")
        if max_matrix_cells < 0:
            raise ValueError(f"max_matrix_cells must be >= 0, got {max_matrix_cells}")
        self.arrays = arrays
        self.time_model = time_model
        self.max_matrix_cells = max_matrix_cells
        self.num_cloudlets = arrays.num_cloudlets
        self.num_vms = arrays.num_vms
        #: per-VM compute capacity (MIPS summed over PEs).
        self.capacity = arrays.vm_mips * arrays.vm_pes
        with np.errstate(divide="ignore"):
            self._inv_bw = np.where(arrays.vm_bw > 0, 1.0 / arrays.vm_bw, 0.0)
        self._matrix: np.ndarray | None = None
        if 0 < self.num_cloudlets * self.num_vms <= max_matrix_cells:
            if time_model == "compute":
                self._matrix = arrays.cloudlet_length[:, None] / self.capacity[None, :]
            else:
                self._matrix = arrays.exec_time_matrix()
        #: memoised rows keyed by the cloudlet characteristics that enter
        #: the time model — one entry total for homogeneous batches.
        self._row_cache: dict[tuple[float, float], np.ndarray] = {}
        #: ``"compute"`` batch weights: the lengths tiled over the largest
        #: block seen so far; a smaller block reads a prefix.
        self._tiled_lengths = np.empty(0)
        #: evaluations performed through this kernel (batch rows + deltas).
        self.evaluations = 0

    # -- element / row access ----------------------------------------------------

    @property
    def matrix(self) -> np.ndarray | None:
        """Full ``(num_cloudlets, num_vms)`` time matrix, or ``None`` if capped."""
        return self._matrix

    def _row_key(self, i: int) -> tuple[float, float]:
        arr = self.arrays
        if self.time_model == "compute":
            return (float(arr.cloudlet_length[i]), 0.0)
        return (float(arr.cloudlet_length[i]), float(arr.cloudlet_file_size[i]))

    def row(self, i: int) -> np.ndarray:
        """Per-VM time row for cloudlet ``i`` (matrix slice or memoised)."""
        if self._matrix is not None:
            if _TEL.enabled:
                _TEL.count("kernel.rows_requested")
                _TEL.count("kernel.rows_memoised")
            return self._matrix[i]
        key = self._row_key(i)
        row = self._row_cache.get(key)
        if _TEL.enabled:
            _TEL.count("kernel.rows_requested")
            _TEL.count("kernel.rows_computed" if row is None else "kernel.rows_memoised")
        if row is None:
            if self.time_model == "compute":
                row = self.arrays.cloudlet_length[i] / self.capacity
            else:
                row = self.arrays.expected_exec_time(i)
            self._row_cache[key] = row
        return row

    def time(self, i: int, j: int) -> float:
        """Time of cloudlet ``i`` on VM ``j``."""
        return float(self.row(i)[j])

    # -- whole-assignment evaluation ----------------------------------------------

    def assignment_times(self, assignment: np.ndarray) -> np.ndarray:
        """Per-cloudlet time on its assigned VM."""
        assignment = np.asarray(assignment, dtype=np.int64)
        arr = self.arrays
        if self._matrix is not None:
            return self._matrix[np.arange(self.num_cloudlets), assignment]
        times = arr.cloudlet_length / self.capacity[assignment]
        if self.time_model == "eq6":
            times = times + arr.cloudlet_file_size * self._inv_bw[assignment]
        return times

    def loads_of(self, assignment: np.ndarray) -> np.ndarray:
        """Per-VM load accumulators: summed times of the assigned cloudlets."""
        assignment = np.asarray(assignment, dtype=np.int64)
        return np.bincount(
            assignment, weights=self.assignment_times(assignment), minlength=self.num_vms
        )

    def makespan(self, assignment: np.ndarray) -> float:
        """Estimated makespan of one assignment (max VM load)."""
        self.evaluations += 1
        if _TEL.enabled:
            _TEL.count("kernel.evaluations")
        return float(self.loads_of(assignment).max())

    # -- batch (population) evaluation ---------------------------------------------

    def batch_loads(self, positions: np.ndarray) -> np.ndarray:
        """Per-member per-VM work of a ``(members, num_cloudlets)`` block.

        ``"compute"`` model returns *work in MI* (divide by :attr:`capacity`
        for time) so the PSO/GA arithmetic stays bit-identical to the
        pre-refactor implementations; ``"eq6"`` returns time directly.
        """
        positions = np.asarray(positions, dtype=np.int64)
        p, n = positions.shape
        m = self.num_vms
        offsets = (np.arange(p)[:, None] * m + positions).ravel()
        if self.time_model == "compute":
            if self._tiled_lengths.size < p * n:
                self._tiled_lengths = np.tile(self.arrays.cloudlet_length, p)
            weights = self._tiled_lengths[: p * n]
        else:
            if self._matrix is not None:
                weights = self._matrix[np.arange(n)[None, :], positions].ravel()
            else:
                arr = self.arrays
                weights = (
                    arr.cloudlet_length[None, :] / self.capacity[positions]
                    + arr.cloudlet_file_size[None, :] * self._inv_bw[positions]
                ).ravel()
        return np.bincount(offsets, weights=weights, minlength=p * m).reshape(p, m)

    def batch_makespans(self, positions: np.ndarray) -> np.ndarray:
        """Estimated makespan per member of a ``(members, n)`` position block."""
        positions = np.asarray(positions, dtype=np.int64)
        self.evaluations += int(positions.shape[0])
        if _TEL.enabled:
            _TEL.count("kernel.evaluations", int(positions.shape[0]))
        loads = self.batch_loads(positions)
        if self.time_model == "compute":
            return (loads / self.capacity).max(axis=1)
        return loads.max(axis=1)

    def uniform_batch_makespans(self, positions: np.ndarray) -> np.ndarray:
        """Tour quality for identical-cloudlet batches: ``(counts * d).max()``.

        Exact fast path used by ACO's homogeneous construction: when every
        cloudlet shares one time row ``d``, a member's makespan is the max
        of per-VM visit counts scaled by ``d`` — O(n) per member with no
        weighted bincount.
        """
        positions = np.asarray(positions, dtype=np.int64)
        self.evaluations += int(positions.shape[0])
        if _TEL.enabled:
            _TEL.count("kernel.evaluations", int(positions.shape[0]))
        d = self.row(0)
        lengths = np.empty(positions.shape[0])
        for a in range(positions.shape[0]):
            counts = np.bincount(positions[a], minlength=self.num_vms)
            lengths[a] = float((counts * d).max())
        return lengths

    # -- balance ------------------------------------------------------------------

    @staticmethod
    def imbalance_of_loads(loads: np.ndarray) -> float:
        """Degree of load imbalance ``(max - min) / mean`` over VM loads."""
        mean = float(loads.mean())
        if mean <= 0:
            return 0.0
        return float((loads.max() - loads.min()) / mean)


class IncrementalLoads:
    """Delta evaluation of single-assignment moves over a kernel's loads.

    Maintains the per-VM load vector, the current makespan and its argmax;
    a proposed move touches two accumulators and yields the candidate
    makespan in O(1) unless the move drains the current-max VM (probability
    ~1/num_vms for random moves), which triggers one O(num_vms) rescan —
    amortised O(1) against the full O(num_vms) recompute per move the
    schedulers used to pay.

    Protocol: :meth:`propose` tentatively applies one move and returns the
    candidate makespan; the caller then either :meth:`commit`\\ s or
    :meth:`reject`\\ s it before proposing the next.  Rejection restores
    the two saved accumulator values exactly (no ``-=``/``+=`` round-trip),
    so loads never drift from the true sums.
    """

    def __init__(self, kernel: FitnessKernel, assignment: np.ndarray) -> None:
        self.kernel = kernel
        self.assignment = np.array(assignment, dtype=np.int64)
        self.loads = kernel.loads_of(self.assignment)
        self._argmax = int(np.argmax(self.loads))
        self.makespan = float(self.loads[self._argmax])
        self._pending: tuple | None = None

    def propose(self, i: int, new_vm: int) -> float | None:
        """Tentatively move cloudlet ``i`` to ``new_vm``; candidate makespan.

        Returns ``None`` for a no-op move (``new_vm`` is already the
        cloudlet's VM).  The move stays pending until :meth:`commit` or
        :meth:`reject`.
        """
        if self._pending is not None:
            raise RuntimeError("previous proposal not resolved (commit/reject first)")
        old_vm = int(self.assignment[i])
        if new_vm == old_vm:
            return None
        loads = self.loads
        saved_old = float(loads[old_vm])
        saved_new = float(loads[new_vm])
        loads[old_vm] -= self.kernel.time(i, old_vm)
        loads[new_vm] += self.kernel.time(i, new_vm)
        if old_vm == self._argmax:
            # The max VM lost load: its successor is unknown — rescan.
            cand_argmax = int(np.argmax(loads))
        elif loads[new_vm] >= loads[self._argmax]:
            cand_argmax = int(new_vm)
        else:
            cand_argmax = self._argmax
        candidate = float(loads[cand_argmax])
        self.kernel.evaluations += 1
        if _TEL.enabled:
            _TEL.count("kernel.delta_proposed")
        self._pending = (i, old_vm, new_vm, saved_old, saved_new, cand_argmax, candidate)
        return candidate

    def commit(self) -> None:
        """Accept the pending move."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to commit")
        i, _, new_vm, _, _, cand_argmax, candidate = self._pending
        self.assignment[i] = new_vm
        self._argmax = cand_argmax
        self.makespan = candidate
        self._pending = None
        if _TEL.enabled:
            _TEL.count("kernel.delta_committed")

    def reject(self) -> None:
        """Undo the pending move, restoring the exact prior accumulators."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to reject")
        _, old_vm, new_vm, saved_old, saved_new, _, _ = self._pending
        self.loads[old_vm] = saved_old
        self.loads[new_vm] = saved_new
        self._pending = None
        if _TEL.enabled:
            _TEL.count("kernel.delta_rejected")

    def imbalance(self) -> float:
        """Current ``(max - min) / mean`` load imbalance."""
        return FitnessKernel.imbalance_of_loads(self.loads)


__all__ = [
    "FitnessKernel",
    "IncrementalLoads",
    "TimeModel",
    "DEFAULT_MAX_MATRIX_CELLS",
]
