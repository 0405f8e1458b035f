"""Ant Colony Optimization scheduler (paper Section IV).

Ants construct complete cloudlet→VM assignments guided by pheromone and
the heuristic desirability ``η[i, j] = 1 / d[i, j]``, where ``d`` is the
Eq. 6 expected execution time::

    d[i, j] = length_i / (pes_j * mips_j) + file_size_i / bw_j

Transition probability (Eq. 5)::

    p_k(i, j) ∝ τ[i, j]^α · η[i, j]^β      over j ∈ allowed_k

Heuristic variants
------------------
``load_aware=False`` (default) uses the static Eq. 6 heuristic verbatim,
as the paper describes: ants prefer fast VMs in proportion to ``η^β`` and
the pheromone feedback (tour quality = estimated makespan) suppresses
constructions that over-stack them.  This reproduces the paper's Fig. 6
behaviour: best makespan, worst time imbalance (fast VMs absorb most
tasks, dragging the mean per-task execution time down) and the longest
scheduling time.  ``load_aware=True`` switches to the completion-time
desirability of the load-balancing ACO the paper cites (Li et al.,
reference [13]): ``η = 1 / (d[i, j] + load_k[j])`` — a strictly stronger
makespan optimiser, exercised by the ablation benches.

Tabu variants
-------------
``tabu="pass"`` enforces the strict reading of "each ant is only allowed
to visit a VM once": a VM becomes unavailable to the ant until every VM
has been used, then the tabu resets (near-uniform visit counts).  This is
what makes ACO converge to the Base Test optimum in the homogeneous
scenario (Fig. 4).  ``tabu="off"`` (default) keeps the tabu only per
decision step — the reading consistent with [13]; the heterogeneous
figures (Fig. 6) need it so the heuristic preference can express itself.

Pheromone layouts
-----------------
``pheromone="pair"`` (default) keeps the full ``τ[i, j]`` matrix of
Algorithm 2.  ``pheromone="vm"`` collapses it to a per-VM vector — the
only layout that fits in memory at the paper's homogeneous scale
(10^6 cloudlets × 10^5 VMs ⇒ 10^11 pairs), and an exactly equivalent
model whenever cloudlets are statistically identical.

Tour quality ``L_k`` (Eq. 8) is the ant's estimated makespan — the
maximum over VMs of the summed ``d`` values assigned to that VM.
Pheromone update (Eq. 7, 9-11)::

    τ ← (1 - ρ) τ                      (evaporation)
    τ[i, a_k(i)] += Q / L_k            (per-ant deposit)
    τ[i, a*(i)]  += Q / L*             (elitist deposit on global best)

Defaults follow Table II: 50 ants, α=0.01, β=0.99, ρ=0.4, Q=100.

Vectorisation: the construction loop is O(num_cloudlets) Python steps.
When every ant faces the same distribution (static heuristic, no tabu)
one cumulative sum plus a batched ``searchsorted`` draws for the whole
colony, and each ant's loads are folded after the loop; otherwise the
(ants × VMs) probability block is sampled row-wise.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IterativeOptimizer, MoveOperator
from repro.schedulers.base import (
    Scheduler,
    SchedulingContext,
    SchedulingResult,
    optimizer_result,
)

#: refuse to allocate per-pair pheromone/heuristic matrices bigger than
#: this many cells (two float64 matrices at 5e7 cells ≈ 800 MB).
DEFAULT_MAX_MATRIX_CELLS = 50_000_000

TabuMode = Literal["off", "pass"]
PheromoneLayout = Literal["pair", "vm"]


class AntColonyScheduler(Scheduler):
    """ACO cloudlet scheduler.

    Parameters
    ----------
    num_ants:
        Colony size per iteration (Table II: 50).
    alpha, beta:
        Pheromone and heuristic exponents (Table II: 0.01 / 0.99).
    rho:
        Pheromone evaporation rate (Table II: 0.4).
    q:
        Deposit numerator ``Q`` (Table II: 100).
    max_iterations:
        Number of colony iterations.
    initial_pheromone:
        ``τ(0)``, the constant C of Algorithm 2.
    elitist:
        Apply the global-best deposit of Eq. 11 after each iteration.
    load_aware:
        Use the completion-time heuristic of [13] (see module docstring).
    tabu:
        ``"off"`` or ``"pass"`` (see module docstring).
    pheromone:
        ``"pair"`` (Algorithm 2 verbatim) or ``"vm"`` (memory-scalable).
    patience:
        Stop early after this many iterations without improving the best
        tour (``None`` disables early stopping).
    max_matrix_cells:
        Safety cap on ``num_cloudlets * num_vms`` in ``"pair"`` layout.
    """

    def __init__(
        self,
        num_ants: int = 50,
        alpha: float = 0.01,
        beta: float = 0.99,
        rho: float = 0.4,
        q: float = 100.0,
        max_iterations: int = 5,
        initial_pheromone: float = 0.1,
        elitist: bool = True,
        load_aware: bool = False,
        tabu: TabuMode = "off",
        pheromone: PheromoneLayout = "pair",
        patience: int | None = None,
        max_matrix_cells: int = DEFAULT_MAX_MATRIX_CELLS,
    ) -> None:
        if num_ants < 1:
            raise ValueError(f"num_ants must be >= 1, got {num_ants}")
        if not 0 <= rho <= 1:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if q <= 0 or initial_pheromone <= 0:
            raise ValueError("q and initial_pheromone must be positive")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if tabu not in ("off", "pass"):
            raise ValueError(f"tabu must be 'off' or 'pass', got {tabu!r}")
        if pheromone not in ("pair", "vm"):
            raise ValueError(f"pheromone must be 'pair' or 'vm', got {pheromone!r}")
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {patience}")
        self.num_ants = num_ants
        self.alpha = alpha
        self.beta = beta
        self.rho = rho
        self.q = q
        self.max_iterations = max_iterations
        self.initial_pheromone = initial_pheromone
        self.elitist = elitist
        self.load_aware = load_aware
        self.tabu = tabu
        self.pheromone = pheromone
        self.patience = patience
        self.max_matrix_cells = max_matrix_cells

    @property
    def name(self) -> str:
        return "antcolony"

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        n, m = context.num_cloudlets, context.num_vms
        if self.pheromone == "pair" and n * m > self.max_matrix_cells:
            raise ValueError(
                f"ACO per-pair pheromone matrix would need {n * m} cells "
                f"(> max_matrix_cells={self.max_matrix_cells}); use "
                "pheromone='vm' or run a scaled-down sweep"
            )
        operator = _ColonyOperator(self, context)
        with _TEL.span("aco.schedule"):
            outcome = IterativeOptimizer(
                operator, self.max_iterations, patience=self.patience
            ).run(context.rng)
        return optimizer_result(
            self,
            outcome,
            fitness_key="best_tour_length",
            num_ants=self.num_ants,
            pheromone_layout=self.pheromone,
        )


class _ColonyOperator(MoveOperator):
    """One colony iteration (construction + pheromone feedback) per step.

    The pheromone deposit for iteration ``k`` uses the incumbent best
    *after* iteration ``k`` was scored, so it is applied lazily at the
    start of step ``k + 1`` — the same evaporation/deposit sequence as the
    historical loop (whose final-iteration deposit was unobservable).
    """

    def __init__(self, cfg: AntColonyScheduler, context: SchedulingContext) -> None:
        self.cfg = cfg
        self.context = context

    def initialize(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        kernel = FitnessKernel(
            self.context.arrays,
            time_model="eq6",
            max_matrix_cells=cfg.max_matrix_cells if cfg.pheromone == "pair" else 0,
        )
        self.state = _ColonyState(cfg, self.context, kernel)
        self._last: tuple[np.ndarray, np.ndarray] | None = None
        return None

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate:
        if self._last is not None:
            with _TEL.span("aco.pheromone_update"):
                self.state.update_pheromone(
                    *self._last, incumbent_assignment, incumbent_fitness
                )
        with _TEL.span("aco.construct"):
            assignments, lengths = self.state.construct(rng)
        self._last = (assignments, lengths)
        idx = int(np.argmin(lengths))
        return Candidate(
            assignments[idx], float(lengths[idx]), evaluations=self.cfg.num_ants
        )


class _ColonyState:
    """Per-schedule working state: heuristic rows, pheromone, construction.

    Eq. 6 distances and tour-quality scoring are served by the shared
    :class:`FitnessKernel` (``"eq6"`` time model): the memory-capped
    per-pair matrix in ``pheromone="pair"`` layout, memoised per-VM rows
    otherwise.
    """

    def __init__(
        self, cfg: AntColonyScheduler, context: SchedulingContext, kernel: FitnessKernel
    ) -> None:
        self.cfg = cfg
        self.kernel = kernel
        self.arrays = context.arrays
        self.n = context.num_cloudlets
        self.m = context.num_vms
        if cfg.pheromone == "pair":
            self.tau = np.full((self.n, self.m), cfg.initial_pheromone)
            self.eta_pow = (
                None if cfg.load_aware else (1.0 / kernel.matrix) ** cfg.beta
            )
        else:
            self.tau = np.full(self.m, cfg.initial_pheromone)
            self.eta_pow = None
        #: memoised ``η^β`` rows keyed like the kernel's row cache.
        self._eta_cache: dict[tuple[float, float], np.ndarray] = {}

    # -- heuristic rows -----------------------------------------------------------

    def d_row(self, i: int) -> np.ndarray:
        """Eq. 6 row for cloudlet ``i`` (kernel matrix slice or memoised row)."""
        return self.kernel.row(i)

    def eta_pow_row(self, i: int) -> np.ndarray:
        """``η^β`` row for cloudlet ``i`` (static heuristic only)."""
        if self.eta_pow is not None:
            return self.eta_pow[i]
        key = (
            float(self.arrays.cloudlet_length[i]),
            float(self.arrays.cloudlet_file_size[i]),
        )
        row = self._eta_cache.get(key)
        if row is None:
            row = (1.0 / self.d_row(i)) ** self.cfg.beta
            self._eta_cache[key] = row
        return row

    def tau_pow_row(self, i: int, tau_pow: np.ndarray) -> np.ndarray:
        return tau_pow[i] if tau_pow.ndim == 2 else tau_pow

    # -- construction ----------------------------------------------------------------

    def _uniform_batch(self) -> bool:
        """True when every cloudlet has identical Eq. 6 characteristics."""
        arr = self.arrays
        return (
            float(np.ptp(arr.cloudlet_length)) == 0.0
            and float(np.ptp(arr.cloudlet_file_size)) == 0.0
        )

    def construct(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One colony iteration: an assignment per ant plus tour lengths."""
        cfg = self.cfg
        n, m, ants = self.n, self.m, cfg.num_ants
        if (
            cfg.tabu == "pass"
            and not cfg.load_aware
            and self.tau.ndim == 1
            and self._uniform_batch()
        ):
            return self._construct_uniform_gumbel(rng)
        tau_pow = self.tau ** cfg.alpha
        if cfg.tabu == "off" and not cfg.load_aware:
            return self._construct_shared(rng, tau_pow)
        loads = np.zeros((ants, m))
        assignments = np.empty((ants, n), dtype=np.int64)
        ant_rows = np.arange(ants)
        allowed = np.ones((ants, m), dtype=bool) if cfg.tabu == "pass" else None

        order = rng.permutation(n)
        for i in order:
            t_row = self.tau_pow_row(i, tau_pow)
            d_row = self.d_row(i)
            if cfg.load_aware:
                w = t_row * (d_row + loads) ** (-cfg.beta)  # (ants, m)
            else:
                w = np.broadcast_to(t_row * self.eta_pow_row(i), (ants, m)).copy()
            if allowed is not None:
                base = w[0] if cfg.load_aware is False else None
                w = np.where(allowed, w, 0.0)
                dead = w.sum(axis=1) <= 0
                if dead.any():
                    # Full pass over the fleet completed: tabu resets.
                    allowed[dead] = True
                    if cfg.load_aware:
                        w[dead] = (t_row * (d_row + loads) ** (-cfg.beta))[dead]
                    else:
                        w[dead] = base
            cum = np.cumsum(w, axis=1)
            u = rng.random(ants) * cum[:, -1]
            choice = np.minimum((cum < u[:, None]).sum(axis=1), m - 1)
            assignments[:, i] = choice
            loads[ant_rows, choice] += self.d_row(i)[choice]
            if allowed is not None:
                allowed[ant_rows, choice] = False
        return assignments, loads.max(axis=1)

    def _construct_shared(
        self, rng: np.random.Generator, tau_pow: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Construction when every ant draws from one distribution.

        With the static heuristic and per-step tabu nothing ant-specific
        enters cloudlet ``i``'s distribution, so a step is one cumulative
        sum and one ``searchsorted`` for the whole colony.  Loads never
        feed back into the draws, so they are folded after the loop: one
        ``bincount`` over an ant's visits in visit order adds the same
        times to each VM in the same order as a per-step accumulator.
        """
        n, m, ants = self.n, self.m, self.cfg.num_ants
        assignments = np.empty((ants, n), dtype=np.int64)
        pair = tau_pow.ndim == 2
        eta_pow_row = self.eta_pow_row
        order = rng.permutation(n)
        for i in order:
            cum = np.cumsum((tau_pow[i] if pair else tau_pow) * eta_pow_row(i))
            assignments[:, i] = np.searchsorted(
                cum, rng.random(ants) * cum[-1], side="right"
            )
        # A draw that rounds up to cum[-1] lands past the last VM.
        np.minimum(assignments, m - 1, out=assignments)
        # One Eq. 6 row read per step, as the per-step accumulator made.
        _TEL.count("kernel.rows_requested", n)
        _TEL.count("kernel.rows_memoised", n)
        # ``d_row(i)[a_i]`` for every cloudlet: the kernel's matrix entries,
        # or Eq. 6 computed as the memoised rows compute it.
        times_of = (
            self.kernel.assignment_times
            if self.kernel.matrix is not None
            else self.arrays.assigned_exec_time
        )
        lengths = np.empty(ants)
        for a in range(ants):
            times = times_of(assignments[a])
            lengths[a] = np.bincount(
                assignments[a, order], weights=times[order], minlength=m
            ).max()
        return assignments, lengths

    def _construct_uniform_gumbel(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Exact fast path for identical-cloudlet batches under per-pass tabu.

        With a per-VM pheromone vector, a static heuristic and identical
        cloudlets, an ant's pass over the fleet is one weighted random
        permutation of the VMs (successive draws without replacement from
        fixed weights) — which the Gumbel-top-k identity samples as
        ``argsort(log w + Gumbel)`` in O(m log m).  This is what makes the
        paper's 10^6-cloudlet homogeneous sweeps runnable.
        """
        cfg = self.cfg
        n, m, ants = self.n, self.m, cfg.num_ants
        w = (self.tau ** cfg.alpha) * self.eta_pow_row(0)
        log_w = np.log(np.maximum(w, 1e-300))
        passes = -(-n // m)
        assignments = np.empty((ants, n), dtype=np.int64)
        for a in range(ants):
            slots = np.empty(passes * m, dtype=np.int64)
            for p in range(passes):
                gumbel = -np.log(-np.log(rng.random(m)))
                slots[p * m : (p + 1) * m] = np.argsort(-(log_w + gumbel))
            assignments[a] = slots[:n]
        lengths = self.kernel.uniform_batch_makespans(assignments)
        return assignments, lengths

    # -- pheromone update ---------------------------------------------------------------

    def update_pheromone(
        self,
        assignments: np.ndarray,
        lengths: np.ndarray,
        best_assignment: np.ndarray | None,
        best_length: float,
    ) -> None:
        """Evaporate and deposit (Eq. 7, 9-11) in either layout."""
        cfg = self.cfg
        n = assignments.shape[1]
        tau = self.tau
        tau *= 1.0 - cfg.rho
        deposits = cfg.q / lengths  # (ants,)
        if tau.ndim == 2:
            # Flat cell indices, ant by ant: each cell gets its additions
            # in the same order as the (row, column) form, several times faster.
            cells = (np.arange(n) * tau.shape[1] + assignments).ravel()
            np.add.at(tau.reshape(-1), cells, np.repeat(deposits, n))
            if cfg.elitist and best_assignment is not None and np.isfinite(best_length):
                tau[np.arange(n), best_assignment] += cfg.q / best_length
        else:
            np.add.at(tau, assignments.ravel(), np.repeat(deposits, n))
            if cfg.elitist and best_assignment is not None and np.isfinite(best_length):
                np.add.at(
                    tau,
                    best_assignment,
                    np.full(n, cfg.q / best_length),
                )
        np.clip(tau, 1e-12, None, out=tau)


__all__ = ["AntColonyScheduler"]
