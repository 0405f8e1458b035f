"""Unified iterative-optimizer subsystem.

The metaheuristic schedulers (ACO, PSO, GA, annealing, and the hybrid's
delegates) are one algorithm family differing only in their move/variation
operator.  This package factors out the two pieces they used to hand-roll
five times over:

* :mod:`repro.optim.kernel` — :class:`FitnessKernel`, the shared fitness
  substrate: memory-capped execution-time matrix (or per-row fallback),
  per-VM load accumulators, O(1)-amortised *incremental* makespan /
  imbalance delta-evaluation for single-assignment moves
  (:class:`IncrementalLoads`), and vectorised batch evaluation for whole
  populations.
* :mod:`repro.optim.loop` — :class:`IterativeOptimizer`, the shared
  iteration driver: pluggable :class:`MoveOperator`, two stopping rules
  (the iteration cap and stagnation patience), and a
  :class:`ConvergenceTrace`, always recorded (best-so-far fitness,
  evaluations, wall-clock), surfaced through
  ``SchedulingResult.info["convergence"]``.

The execution layer — the process-pool sweep runner that fans the
(scheduler × vm_count × seed) grid across workers — lives in
:mod:`repro.experiments.runner`.

Examples
--------
A tiny homogeneous scenario: four 250-MI cloudlets on two 1000-MIPS
single-PE VMs, so each cloudlet runs in 0.25 s and a balanced split has
an estimated makespan of 0.5 s:

>>> import numpy as np
>>> from repro.optim import FitnessKernel, IncrementalLoads
>>> from repro.workloads import homogeneous_scenario
>>> arrays = homogeneous_scenario(2, 4, seed=0).arrays()
>>> kernel = FitnessKernel(arrays, time_model="compute")
>>> balanced = np.array([0, 0, 1, 1])
>>> kernel.makespan(balanced)
0.5

Delta evaluation follows a strict propose → commit/reject contract:
:meth:`IncrementalLoads.propose` tentatively applies one single-assignment
move and returns the candidate makespan, and the caller must resolve the
pending move before proposing the next one.  Rejecting restores the two
touched load accumulators to their exact saved values (no ``+=``/``-=``
round-trip), so loads never drift from the true sums:

>>> inc = IncrementalLoads(kernel, balanced)
>>> inc.propose(1, 1)   # move cloudlet 1 onto VM 1: three 0.25 s tasks there
0.75
>>> inc.reject()        # worse — restore the saved loads exactly
>>> inc.makespan
0.5
>>> inc.propose(3, 0)   # the symmetric move the other way
0.75
>>> inc.commit()        # accept anyway (annealing-style uphill move)
>>> inc.makespan
0.75
>>> inc.assignment.tolist()
[0, 0, 1, 0]
"""

from repro.optim.kernel import FitnessKernel, IncrementalLoads
from repro.optim.loop import (
    Candidate,
    ConvergenceTrace,
    IterativeOptimizer,
    MoveOperator,
    OptimizationOutcome,
)

__all__ = [
    "FitnessKernel",
    "IncrementalLoads",
    "Candidate",
    "ConvergenceTrace",
    "IterativeOptimizer",
    "MoveOperator",
    "OptimizationOutcome",
]
