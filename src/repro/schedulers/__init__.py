"""Cloudlet-to-VM scheduling policies.

The paper's four algorithms:

* :class:`RoundRobinScheduler` — the "Base Test": cyclic assignment,
  CloudSim's default broker behaviour;
* :class:`AntColonyScheduler` — ACO (Section IV, Eq. 5-11, Table II);
* :class:`HoneyBeeScheduler` — HBO (Section III, Eq. 1-4, Alg. 1);
* :class:`RandomBiasedSamplingScheduler` — RBS (Section V, Alg. 3);

plus related-work baselines and extensions used by the ablation benches:
Max-Min [4], Min-Min, greedy minimum-completion-time, uniform random,
priority-based [25], discrete PSO [18], GA [6], the future-work
:class:`HybridScheduler` sketched in the paper's conclusion, and the
optimizer-kernel zoo from PAPERS.md — gravitational search
(:class:`GravitationalSearchScheduler`), hybrid binary PSOGSA
(:class:`PsoGsaScheduler`) and cuckoo-assisted symbiotic organisms search
(:class:`CuckooSosScheduler`).

Round-robin, HBO, RBS and greedy-MCT are each one class implementing
the chunk-at-a-time :class:`StreamingScheduler` protocol (``streaming``);
their batch ``schedule()`` is the inherited single-chunk pass, so the
registry, the streaming engine, sharding and serving all run the same
code.  :func:`as_streaming` returns those schedulers unchanged and wraps
every other one in an in-memory fallback that materialises the workload
(the population metaheuristics).
"""

from repro.schedulers.aco import AntColonyScheduler
from repro.schedulers.annealing import SimulatedAnnealingScheduler
from repro.schedulers.base import (
    Scheduler,
    SchedulingContext,
    SchedulingResult,
    validate_assignment,
)
from repro.schedulers.classics import (
    MinimumExecutionTimeScheduler,
    OpportunisticLoadBalancingScheduler,
)
from repro.schedulers.cuckoo_sos import CuckooSosScheduler
from repro.schedulers.deadline import DeadlineAwareScheduler
from repro.schedulers.ga import GeneticAlgorithmScheduler
from repro.schedulers.greedy import GreedyMinCompletionScheduler
from repro.schedulers.gsa import GravitationalSearchScheduler
from repro.schedulers.hbo import HoneyBeeScheduler
from repro.schedulers.hybrid import HybridObjective, HybridScheduler
from repro.schedulers.maxmin import MaxMinScheduler, MinMinScheduler
from repro.schedulers.priority import PriorityCostScheduler
from repro.schedulers.pso import ParticleSwarmScheduler
from repro.schedulers.psogsa import PsoGsaScheduler
from repro.schedulers.random_assign import RandomScheduler
from repro.schedulers.rbs import RandomBiasedSamplingScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.streaming import (
    STREAMING_SCHEDULERS,
    ChunkAssigner,
    InMemoryFallback,
    StreamingScheduler,
    as_streaming,
    make_streaming_scheduler,
)

#: All scheduler classes keyed by their registry name.
SCHEDULER_REGISTRY: dict[str, type[Scheduler]] = {
    cls().name: cls  # type: ignore[abstract]
    for cls in (
        RoundRobinScheduler,
        AntColonyScheduler,
        HoneyBeeScheduler,
        RandomBiasedSamplingScheduler,
        MaxMinScheduler,
        MinMinScheduler,
        GreedyMinCompletionScheduler,
        RandomScheduler,
        PriorityCostScheduler,
        ParticleSwarmScheduler,
        GeneticAlgorithmScheduler,
        DeadlineAwareScheduler,
        MinimumExecutionTimeScheduler,
        OpportunisticLoadBalancingScheduler,
        SimulatedAnnealingScheduler,
        HybridScheduler,
        GravitationalSearchScheduler,
        PsoGsaScheduler,
        CuckooSosScheduler,
    )
}

STREAMING_SCHEDULERS.update(
    sorted(
        (name, cls)
        for name, cls in SCHEDULER_REGISTRY.items()
        if issubclass(cls, StreamingScheduler)
    )
)

#: The four schedulers compared in the paper, in its plotting order.
PAPER_SCHEDULERS = ("antcolony", "basetest", "honeybee", "rbs")


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler from the registry by name."""
    try:
        cls = SCHEDULER_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(SCHEDULER_REGISTRY)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "Scheduler",
    "SchedulingContext",
    "SchedulingResult",
    "validate_assignment",
    "RoundRobinScheduler",
    "AntColonyScheduler",
    "HoneyBeeScheduler",
    "RandomBiasedSamplingScheduler",
    "MaxMinScheduler",
    "MinMinScheduler",
    "GreedyMinCompletionScheduler",
    "RandomScheduler",
    "PriorityCostScheduler",
    "ParticleSwarmScheduler",
    "GeneticAlgorithmScheduler",
    "DeadlineAwareScheduler",
    "MinimumExecutionTimeScheduler",
    "OpportunisticLoadBalancingScheduler",
    "SimulatedAnnealingScheduler",
    "HybridScheduler",
    "HybridObjective",
    "GravitationalSearchScheduler",
    "PsoGsaScheduler",
    "CuckooSosScheduler",
    "SCHEDULER_REGISTRY",
    "PAPER_SCHEDULERS",
    "make_scheduler",
    "StreamingScheduler",
    "ChunkAssigner",
    "InMemoryFallback",
    "STREAMING_SCHEDULERS",
    "make_streaming_scheduler",
    "as_streaming",
]
