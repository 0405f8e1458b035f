"""Priority-based cost scheduler.

Reimplements the related-work baseline of Selvarani & Sadhasivam 2010
("Improved cost-based algorithm for task scheduling in cloud computing",
reference [25] of the paper): cloudlets are split into three priority
bands by their execution cost, and each band is scheduled onto the VM
tier with the matching price/performance profile — expensive tasks onto
cheap-but-capable VMs first.

Concretely:

1. price every (cloudlet, VM-tier) pair with the owning datacenter's unit
   costs;
2. sort cloudlets by standalone cost estimate and cut the list into
   ``high`` / ``medium`` / ``low`` priority thirds;
3. schedule bands in priority order; within a band, each cloudlet goes to
   the VM minimising ``cost + load_weight * current_load`` so cheap VMs
   are preferred but not swamped.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import check_number
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult


class PriorityCostScheduler(Scheduler):
    """Three-band cost-priority scheduler.

    Parameters
    ----------
    load_weight:
        Relative weight of a VM's accumulated load (expected seconds)
        against its monetary cost when placing a cloudlet.  0 reduces to
        pure cheapest-VM; larger values trade cost for balance.
    bands:
        Number of priority bands (the cited work uses 3).
    """

    def __init__(self, load_weight: float = 1.0, bands: int = 3) -> None:
        self.load_weight = check_number("load_weight", load_weight, ge=0)
        self.bands = check_number("bands", bands, ge=1, integer=True)

    @property
    def name(self) -> str:
        return "priority-cost"

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        arr = context.arrays
        n, m = context.num_cloudlets, context.num_vms

        dc = arr.vm_datacenter
        # $ per second of each VM and fixed per-cloudlet overheads.
        cpu_rate = arr.dc_cost_per_cpu[dc]  # (m,)
        fixed = (
            arr.dc_cost_per_mem[dc] * arr.vm_ram
            + arr.dc_cost_per_storage[dc] * arr.vm_size
        )
        inv_mips = 1.0 / (arr.vm_mips * arr.vm_pes)

        # Standalone cost estimate per cloudlet: price on the *average* VM.
        mean_rate = float((cpu_rate * inv_mips).mean())
        est_cost = arr.cloudlet_length * mean_rate + float(fixed.mean())
        order = np.argsort(est_cost, kind="stable")[::-1]  # most expensive first
        band_of = np.empty(n, dtype=np.int64)
        for b, chunk in enumerate(np.array_split(order, self.bands)):
            band_of[chunk] = b

        load = np.zeros(m)
        assignment = np.empty(n, dtype=np.int64)
        for b in range(self.bands):
            for i in np.nonzero(band_of == b)[0]:
                exec_secs = arr.cloudlet_length[i] * inv_mips
                bw_cost = arr.dc_cost_per_bw[dc] * (
                    arr.cloudlet_file_size[i] + arr.cloudlet_output_size[i]
                )
                cost = cpu_rate * exec_secs + fixed + bw_cost
                score = cost + self.load_weight * (load + exec_secs)
                j = int(np.argmin(score))
                assignment[i] = j
                load[j] += exec_secs[j]
        return SchedulingResult(
            assignment=assignment,
            scheduler_name=self.name,
            info={"bands": self.bands},
        )


__all__ = ["PriorityCostScheduler"]
