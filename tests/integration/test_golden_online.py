"""Golden pins for the online engine's decisions.

Each row pins a SHA-256 over the ``assignment``, ``start_times`` and
``finish_times`` bytes of one :class:`~repro.cloud.online.OnlineCloudSimulation`
run, plus the run's ``info.get("retries")``, for the four native online
policies on one small heterogeneous scenario run three ways:

* ``plain`` — Poisson arrivals, no timeline, every VM eligible;
* ``storm`` — :func:`~repro.cloud.chaos.demo_storm_timeline` with two
  standby VMs and no loop (crash bounces re-placed by the policy, picks
  of parked or dead VMs remapped);
* ``controlled`` — the same storm under a MAPE-K
  :class:`~repro.cloud.control.ControlConfig` (rebalance cancels and
  standby recruitment on top).

The values were recorded before the controlled broker's mechanisms were
folded into :class:`~repro.cloud.online.OnlineBroker`, so they pin that
the fold changed no decision.  If an intentional change shifts them,
regenerate the pins and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.chaos import demo_storm_timeline
from repro.cloud.control import ControlConfig
from repro.cloud.online import OnlineCloudSimulation
from repro.schedulers.online import (
    OnlineGreedyMCT,
    OnlineLeastLoaded,
    OnlineRandom,
    OnlineRoundRobin,
)
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.heterogeneous import heterogeneous_scenario

NUM_VMS = 10

POLICIES = {
    "online-roundrobin": OnlineRoundRobin,
    "online-random": OnlineRandom,
    "online-leastloaded": OnlineLeastLoaded,
    "online-greedy-mct": OnlineGreedyMCT,
}

CONTROL = ControlConfig(
    cadence=0.5,
    cooldown=2.0,
    imbalance_threshold=2.0,
    scale_up_backlog=1.5,
    standby_vms=2,
    sla_seconds=30.0,
)

RUNS = {
    "plain": dict(arrivals=PoissonArrivals(rate=20.0)),
    "storm": dict(timeline=demo_storm_timeline(NUM_VMS), standby_vms=2),
    "controlled": dict(timeline=demo_storm_timeline(NUM_VMS), control=CONTROL),
}

#: (run, policy) -> (sha256 of assignment/start/finish bytes, info["retries"]).
GOLDEN = {
    ("plain", "online-roundrobin"): ("cc7554133c04cc5cea1d637920b1b979e88e0ececa762e7dcc3bc56b44838794", None),
    ("plain", "online-random"): ("1a77c392e9bc45cfe18aef8ab5ac8ed847caaf54d4fd98c7b9274333e0f9732e", None),
    ("plain", "online-leastloaded"): ("a9dcde36960a754a785cb6b9e34d6c320fa2d7b06e41c3b549dc77ddf0ac12c3", None),
    ("plain", "online-greedy-mct"): ("eebb8ed74feba48237d6eb968c20d0e01290902c70372830f5b7c8beeb4cd2e6", None),
    ("storm", "online-roundrobin"): ("d297399911644895cdbc8a71c9fbaa3901c7381634dbb3e4420bbce3fdc335d2", 11),
    ("storm", "online-random"): ("a48341e41a4c669141b86f2744c5729408ed5df880048b2771e0520baaf95a83", 14),
    ("storm", "online-leastloaded"): ("b481d4db9cdee766a24fc1a7eec7155a68b8aa91392dc816c5bcd92f1968b7c1", 9),
    ("storm", "online-greedy-mct"): ("7b7242e72324b9c3506dd01810d9f84fc1f879db21c0d53d5bcf4724fe575ad7", 13),
    ("controlled", "online-roundrobin"): ("076269ab52121497093a0d767818a04b4d0e351e6a390e0c26f0c8bd00968e9a", 12),
    ("controlled", "online-random"): ("1e019276a9b6f3b5946097491ba63162f39ba47f35912fd0604164cbe4f2c420", 13),
    ("controlled", "online-leastloaded"): ("ae069643f84eefb7e2c6474f087d1f28de67ca03b3ea94df503bfc0c8924cc2d", 7),
    ("controlled", "online-greedy-mct"): ("457b28852790234f60a53dd7b98964b4b5bdf1923788102fb85460dfd2bbe8b3", 14),
}


def _digest(result) -> str:
    h = hashlib.sha256()
    for arr in (result.assignment, result.start_times, result.finish_times):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("run, policy", sorted(GOLDEN))
def test_online_decisions_unchanged(run, policy):
    scenario = heterogeneous_scenario(NUM_VMS, 80, seed=5)
    result = OnlineCloudSimulation(
        scenario, POLICIES[policy](), seed=3, **RUNS[run]
    ).run()
    assert (_digest(result), result.info.get("retries")) == GOLDEN[(run, policy)]
