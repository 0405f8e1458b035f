"""The homogeneous scenario (paper Tables III & IV).

Every VM: 1000 MIPS, 1 PE, 512 MB RAM, 500 Mbit/s, 5000 MB image.
Every cloudlet: 250 MI, 1 PE, 300 MB in/out files.

The paper sweeps 1 000-100 000 VMs against 1 000 000 cloudlets; both counts
are parameters here so the sweep can be run scaled down (see DESIGN.md §2).
"""

from __future__ import annotations

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.workloads.spec import (
    CloudletSpec,
    DatacenterSpec,
    ScenarioSpec,
    VmSpec,
    check_scenario_sizes,
)

#: Table III values.
HOMOGENEOUS_VM = VmSpec(mips=1000.0, pes=1, ram=512.0, bw=500.0, size=5000.0)
#: Table IV values.
HOMOGENEOUS_CLOUDLET = CloudletSpec(length=250.0, pes=1, file_size=300.0, output_size=300.0)


def homogeneous_scenario(
    num_vms: int,
    num_cloudlets: int,
    num_datacenters: int = 2,
    seed: int | None = 0,
    name: str | None = None,
) -> ScenarioSpec:
    """Build the paper's homogeneous scenario.

    Parameters
    ----------
    num_vms:
        Number of identical VMs (paper: 1 000-100 000).
    num_cloudlets:
        Number of identical cloudlets (paper: 1 000 000).
    num_datacenters:
        Datacenters the VMs are spread over round-robin.  The paper does not
        state a count; two is the minimum that exercises HBO's
        datacenter-ranking step without changing any other scheduler.
    seed:
        Recorded in the spec; the homogeneous generator itself is
        deterministic.
    """
    check_scenario_sizes(num_vms, num_cloudlets, num_datacenters)

    # Identical pricing everywhere: cost plays no role in this scenario.
    characteristics = DatacenterCharacteristics(
        cost_per_mem=0.05, cost_per_storage=0.001, cost_per_bw=0.0, cost_per_cpu=3.0
    )
    vms_per_dc = -(-num_vms // num_datacenters)  # ceil division
    datacenters = tuple(
        DatacenterSpec(
            characteristics=characteristics,
            host_pes=64,
            host_mips=HOMOGENEOUS_VM.mips,
            host_ram=64 * HOMOGENEOUS_VM.ram,
            host_bw=64 * HOMOGENEOUS_VM.bw,
            host_storage=64 * HOMOGENEOUS_VM.size * max(1, vms_per_dc // 64 + 1),
        )
        for _ in range(num_datacenters)
    )
    vms = tuple(HOMOGENEOUS_VM for _ in range(num_vms))
    cloudlets = tuple(HOMOGENEOUS_CLOUDLET for _ in range(num_cloudlets))
    vm_datacenter = tuple(i % num_datacenters for i in range(num_vms))
    return ScenarioSpec(
        name=name or f"homogeneous-{num_vms}vms-{num_cloudlets}cl",
        datacenters=datacenters,
        vms=vms,
        cloudlets=cloudlets,
        vm_datacenter=vm_datacenter,
        seed=seed,
    )


__all__ = ["homogeneous_scenario", "HOMOGENEOUS_VM", "HOMOGENEOUS_CLOUDLET"]
