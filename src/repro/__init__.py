"""repro — reproduction of *Performance Analysis of Bio-Inspired Scheduling
Algorithms for Cloud Environments* (Al Buhussain, De Grande, Boukerche;
IEEE IPDPS Workshops 2016).

The package is organised as:

``repro.core``
    A from-scratch discrete-event simulation (DES) kernel: event calendar,
    simulation clock, entities and message passing.  This replaces CloudSim's
    ``SimEntity``/``CloudSim`` core.

``repro.cloud``
    A CloudSim-equivalent cloud model built on the kernel: datacenters,
    hosts, virtual machines, cloudlets (tasks), brokers, provisioners and
    time-/space-shared execution models, over CloudSim's default
    delay-free network.

``repro.schedulers``
    The paper's schedulers — Base Test (cyclic/round-robin), Ant Colony
    Optimization (ACO), Honey Bee Optimization (HBO), Random Biased Sampling
    (RBS) — plus related-work baselines (Max-Min, Min-Min, PSO, GA,
    priority-based) and the future-work hybrid scheduler.

``repro.metrics``
    The paper's four metrics (scheduling time, simulation time/makespan,
    time imbalance, processing cost) and supporting statistics.

``repro.workloads``
    Scenario generators encoding Tables III-VII of the paper and a generic
    synthetic workload library.

``repro.experiments``
    The sweep runner and one regeneration entry point per paper figure
    (Fig. 4a/4b, 5a/5b, 6a-6d) plus ablations.

Quickstart
----------

>>> from repro import quick_run
>>> from repro.schedulers import AntColonyScheduler
>>> result = quick_run(AntColonyScheduler(), num_vms=20, num_cloudlets=200, seed=1)
>>> result.makespan > 0
True
"""

from __future__ import annotations

from repro._version import __version__
from repro.cloud.simulation import CloudSimulation, SimulationResult, quick_run
from repro.schedulers import (
    AntColonyScheduler,
    HoneyBeeScheduler,
    RandomBiasedSamplingScheduler,
    RoundRobinScheduler,
)
from repro.workloads import heterogeneous_scenario, homogeneous_scenario

__all__ = [
    "__version__",
    "CloudSimulation",
    "SimulationResult",
    "quick_run",
    "RoundRobinScheduler",
    "AntColonyScheduler",
    "HoneyBeeScheduler",
    "RandomBiasedSamplingScheduler",
    "homogeneous_scenario",
    "heterogeneous_scenario",
]
