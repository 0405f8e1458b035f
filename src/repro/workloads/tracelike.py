"""Trace-like synthetic workload.

A scenario preset whose statistics mimic published cluster-trace analyses
(Google cluster traces, Reiss et al. 2012): task durations are heavy-tailed
(most tasks are short, a thin tail runs orders of magnitude longer), the
machine fleet is tiered rather than uniform, and demand follows a diurnal
cycle.  Used by the extension experiments as the "realistic" counterpoint
to the paper's uniform Table VI batch; no proprietary trace data is
involved — see DESIGN.md's substitution policy.

Concretely:

* task lengths ~ lognormal with σ≈1.8, clipped to [100 MI, 2·10^6 MI]
  (duration CV of ~5, matching the trace literature's heavy tails);
* VM MIPS drawn from a 3-tier fleet (0.5k/2k/4k at 50/35/15%);
* :func:`diurnal_arrivals_for` pairs the scenario with a matching
  day/night arrival process for the online engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import check_number
from repro.workloads.arrivals import DiurnalArrivals
from repro.workloads.spec import ScenarioSpec
from repro.workloads.synthetic import DistributionSpec, SyntheticWorkloadBuilder

#: lognormal parameters for task lengths (MI): median ~e^8.5 ≈ 4.9k MI.
LENGTH_MU = 8.5
LENGTH_SIGMA = 1.8
LENGTH_CLIP = (100.0, 2_000_000.0)

#: the three machine tiers and their fleet shares.
FLEET_TIERS = (500.0, 2000.0, 4000.0)
FLEET_SHARES = (0.50, 0.35, 0.15)


def tracelike_scenario(
    num_vms: int,
    num_cloudlets: int,
    num_datacenters: int = 4,
    seed: int | None = 0,
    name: str | None = None,
) -> ScenarioSpec:
    """Build the trace-like scenario (see module docstring)."""
    check_number("num_vms", num_vms, ge=1, integer=True)
    check_number("num_cloudlets", num_cloudlets, ge=1, integer=True)
    # Tiered fleet expressed as a weighted choice: repeat values by share
    # over a fine grid so DistributionSpec("choice") samples the mix.
    grid = []
    for mips, share in zip(FLEET_TIERS, FLEET_SHARES):
        grid.extend([mips] * max(1, round(share * 20)))
    spec = (
        SyntheticWorkloadBuilder(seed=seed)
        .vms(num_vms, mips=DistributionSpec("choice", {"values": grid}))
        .cloudlets(
            num_cloudlets,
            length=DistributionSpec(
                "lognormal", {"mean": LENGTH_MU, "sigma": LENGTH_SIGMA}
            ),
        )
        .datacenters(min(num_datacenters, num_vms))
        .build(name or f"tracelike-{num_vms}vms-{num_cloudlets}cl")
    )
    # Clip the lognormal tail to the documented range.
    import dataclasses

    clipped = tuple(
        dataclasses.replace(
            c, length=float(np.clip(c.length, *LENGTH_CLIP))
        )
        for c in spec.cloudlets
    )
    return dataclasses.replace(spec, cloudlets=clipped)


def diurnal_arrivals_for(
    scenario: ScenarioSpec, mean_utilization: float = 0.6, period: float = 300.0
) -> DiurnalArrivals:
    """An arrival process sized so the fleet runs at ``mean_utilization``.

    The base rate is chosen so that (mean task service time × rate) equals
    ``mean_utilization`` of the fleet's aggregate capacity.
    """
    check_number("mean_utilization", mean_utilization, gt=0, lt=1)
    arr = scenario.arrays()
    total_mips = float((arr.vm_mips * arr.vm_pes).sum())
    mean_length = float(arr.cloudlet_length.mean())
    base_rate = mean_utilization * total_mips / mean_length
    return DiurnalArrivals(base_rate=base_rate, period=period, amplitude=0.8)


__all__ = ["tracelike_scenario", "diurnal_arrivals_for"]
