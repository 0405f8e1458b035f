"""Cuckoo-assisted discrete Symbiotic Organisms Search (SOS) scheduler.

Related-work extension (Sa'ad et al., arXiv:2311.15358): SOS evolves an
*ecosystem* of candidate assignments through three biological interaction
phases, and a cuckoo/Lévy-flight generation step replaces SOS's weakness
at escaping local optima with heavy-tailed long jumps.  One iteration is
four vectorised phases over the whole ecosystem, each generating a full
candidate block from the phase-start snapshot, batch-evaluating it with
:meth:`repro.optim.FitnessKernel.batch_makespans`, and greedily accepting
per organism (a candidate replaces its organism only on strict
improvement — the ecosystem's fitness is non-increasing within a phase):

* **mutualism** — organism ``i`` and a distinct partner ``j`` produce a
  mutual vector ``MV = (x_i + x_j) / 2``; ``i`` moves by
  ``rand ∘ (x_best - MV · BF)`` with benefit factor ``BF ∈ {1, 2}``;
* **commensalism** — ``i`` moves by ``rand[-1, 1] ∘ (x_best - x_j)``,
  benefiting from the partner without affecting it;
* **parasitism** — a parasite clone of ``i`` with a random fraction of
  its components re-randomised challenges ``i`` directly (the snapshot
  variant: each organism defends its own slot, which keeps the phase
  write-conflict-free and therefore fully vectorisable);
* **cuckoo generation** — Lévy flights ``x + alpha · levy(beta) ∘
  (x - x_best)`` (Mantegna's algorithm), then the ``abandon_fraction``
  worst nests — never the best — are rebuilt uniformly at random, the
  cuckoo host-abandonment move.

The operator holds its ecosystem's VM indices as float64, so each
phase's continuous arithmetic runs in place on the block it just drew,
without converting the ecosystem; the result is rounded back to VM
indices as GSA's :func:`~repro.schedulers.gsa.discretise` does.  The loop,
incumbent bookkeeping and convergence trace come from
:class:`repro.optim.IterativeOptimizer`.

Examples
--------
>>> from repro.schedulers.cuckoo_sos import CuckooSosScheduler
>>> from repro.schedulers.base import SchedulingContext
>>> from repro.workloads.heterogeneous import heterogeneous_scenario
>>> scenario = heterogeneous_scenario(4, 10, seed=0)
>>> scheduler = CuckooSosScheduler(ecosystem_size=4, max_iterations=3)
>>> a = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=2))
>>> b = scheduler.schedule_checked(SchedulingContext.from_scenario(scenario, seed=2))
>>> bool((a.assignment == b.assignment).all())
True
>>> trace = a.info["convergence"]["best_fitness"]
>>> all(later <= earlier for earlier, later in zip(trace, trace[1:]))
True
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.optim import Candidate, FitnessKernel, IterativeOptimizer, MoveOperator
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult, optimizer_result


def levy_sigma(beta: float) -> float:
    """Mantegna's ``sigma_u`` for Lévy exponent ``beta``."""
    num = math.gamma(1 + beta) * math.sin(math.pi * beta / 2)
    den = math.gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2)
    return (num / den) ** (1 / beta)


def levy_steps(
    rng: np.random.Generator, shape: tuple[int, ...], beta: float
) -> np.ndarray:
    """Heavy-tailed Lévy step block via Mantegna: ``u / |v|^(1/beta)``."""
    u = rng.normal(0.0, levy_sigma(beta), size=shape)
    v = rng.normal(0.0, 1.0, size=shape)
    np.abs(v, out=v)
    np.maximum(v, 1e-12, out=v)
    v **= 1 / beta
    u /= v
    return u


def _discretise_in_place(block: np.ndarray, num_vms: int) -> np.ndarray:
    """:func:`~repro.schedulers.gsa.discretise` in place: ``block`` rounded
    and clipped to VM indices, kept float64."""
    np.rint(block, out=block)
    np.clip(block, 0, num_vms - 1, out=block)
    return block


class _CuckooSosOperator(MoveOperator):
    """One four-phase SOS + cuckoo cycle over the ecosystem per step."""

    def __init__(self, cfg: "CuckooSosScheduler", context: SchedulingContext) -> None:
        self.cfg = cfg
        self.context = context

    def _partners(self, rng: np.random.Generator) -> np.ndarray:
        """One distinct partner index per organism (j != i by shift)."""
        p = self.cfg.ecosystem_size
        shift = rng.integers(1, p, size=p)
        return (np.arange(p, dtype=np.int64) + shift) % p

    def _accept(self, candidates: np.ndarray) -> int:
        """Greedy per-organism acceptance of a candidate block; evals used."""
        fitness = self.kernel.batch_makespans(candidates)
        better = fitness < self.fitness
        self.population[better] = candidates[better]
        self.fitness[better] = fitness[better]
        return int(candidates.shape[0])

    def initialize(self, rng: np.random.Generator) -> Candidate:
        cfg = self.cfg
        n, m = self.context.num_cloudlets, self.context.num_vms
        p = cfg.ecosystem_size
        self.kernel = FitnessKernel(
            self.context.arrays, time_model="compute", max_matrix_cells=0
        )
        population = rng.integers(0, m, size=(p, n), dtype=np.int64)
        self.fitness = self.kernel.batch_makespans(population)
        #: the ecosystem: integral VM indices stored as float64, which the
        #: phases compute on directly; the kernel and the driver take
        #: rows of it as int64.
        self.population = population.astype(np.float64)
        g = int(np.argmin(self.fitness))
        return Candidate(self.population[g], float(self.fitness[g]), evaluations=p)

    def step(
        self,
        iteration: int,
        rng: np.random.Generator,
        incumbent_assignment: np.ndarray | None,
        incumbent_fitness: float,
    ) -> Candidate:
        # Each phase works in place on the block it just drew, keeping the
        # association of ``x + r * (best - mutual * bf)`` and its kin.
        cfg = self.cfg
        p, n = self.population.shape
        m = self.context.num_vms
        x = self.population
        evaluations = 0

        best = x[int(np.argmin(self.fitness))]
        with _TEL.span("cuckoo_sos.mutualism"):
            partners = self._partners(rng)
            mutual = x[partners]
            mutual += x
            mutual /= 2.0
            mutual *= rng.integers(1, 3, size=(p, 1)).astype(np.float64)
            np.subtract(best, mutual, out=mutual)
            moved = rng.random((p, n))
            moved *= mutual
            moved += x
            evaluations += self._accept(_discretise_in_place(moved, m))

        best = x[int(np.argmin(self.fitness))]
        with _TEL.span("cuckoo_sos.commensalism"):
            partners = self._partners(rng)
            moved = rng.random((p, n))
            moved *= 2.0
            moved -= 1.0
            pull = x[partners]
            np.subtract(best, pull, out=pull)
            moved *= pull
            moved += x
            evaluations += self._accept(_discretise_in_place(moved, m))

        with _TEL.span("cuckoo_sos.parasitism"):
            infect = rng.random((p, n)) < cfg.parasite_rate
            fresh = rng.integers(0, m, size=(p, n), dtype=np.int64)
            evaluations += self._accept(np.where(infect, fresh, self.population))

        best = x[int(np.argmin(self.fitness))]
        with _TEL.span("cuckoo_sos.cuckoo"):
            flown = levy_steps(rng, (p, n), cfg.levy_beta)
            flown *= cfg.step_scale
            flown *= x - best
            flown += x
            evaluations += self._accept(_discretise_in_place(flown, m))
            abandon = int(cfg.abandon_fraction * p)
            if abandon:
                # Worst nests, by stable fitness order — never the best.
                worst = np.argsort(self.fitness, kind="stable")[::-1][:abandon]
                rebuilt = rng.integers(0, m, size=(abandon, n), dtype=np.int64)
                self.population[worst] = rebuilt
                self.fitness[worst] = self.kernel.batch_makespans(rebuilt)
                evaluations += abandon

        g = int(np.argmin(self.fitness))
        return Candidate(self.population[g], float(self.fitness[g]), evaluations=evaluations)


class CuckooSosScheduler(Scheduler):
    """Cuckoo-SOS cloudlet scheduler minimising estimated makespan.

    Parameters
    ----------
    ecosystem_size:
        Number of organisms (candidate assignments).
    max_iterations:
        Four-phase interaction cycles.
    parasite_rate:
        Per-component probability a parasite clone re-randomises that
        component.
    levy_beta:
        Lévy exponent of the cuckoo flight, in ``(1, 2]``.
    step_scale:
        Scale ``alpha`` of the Lévy step.
    abandon_fraction:
        Fraction of worst nests rebuilt at random each cycle, in
        ``[0, 1)``.
    """

    def __init__(
        self,
        ecosystem_size: int = 30,
        max_iterations: int = 40,
        parasite_rate: float = 0.3,
        levy_beta: float = 1.5,
        step_scale: float = 1.0,
        abandon_fraction: float = 0.25,
    ) -> None:
        if ecosystem_size < 2:
            raise ValueError(f"ecosystem_size must be >= 2, got {ecosystem_size}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0 < parasite_rate <= 1:
            raise ValueError(f"parasite_rate must be in (0, 1], got {parasite_rate}")
        if not 1 < levy_beta <= 2:
            raise ValueError(f"levy_beta must be in (1, 2], got {levy_beta}")
        if step_scale <= 0:
            raise ValueError(f"step_scale must be positive, got {step_scale}")
        if not 0 <= abandon_fraction < 1:
            raise ValueError(
                f"abandon_fraction must be in [0, 1), got {abandon_fraction}"
            )
        self.ecosystem_size = ecosystem_size
        self.max_iterations = max_iterations
        self.parasite_rate = parasite_rate
        self.levy_beta = levy_beta
        self.step_scale = step_scale
        self.abandon_fraction = abandon_fraction

    @property
    def name(self) -> str:
        return "cuckoo-sos"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        operator = _CuckooSosOperator(self, context)
        outcome = IterativeOptimizer(operator, self.max_iterations).run(context.rng)
        return optimizer_result(self, outcome)


__all__ = ["CuckooSosScheduler", "levy_sigma", "levy_steps"]
