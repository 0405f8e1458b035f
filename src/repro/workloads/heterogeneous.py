"""The heterogeneous scenario (paper Tables V, VI & VII).

VMs: MIPS uniform in [500, 4000]; other attributes as in Table V.
Cloudlets: length uniform in [1000, 20000]; 300 MB in/out files.
Datacenters: unit costs drawn uniformly from the Table VII ranges
(memory 0.01-0.05, storage 0.001-0.004, bandwidth 0.01-0.05,
processing fixed at 3).

The paper reduces the environment to 50-950 VMs and up to 5 000 cloudlets.
"""

from __future__ import annotations

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.core.rng import spawn_rng
from repro.workloads.spec import (
    CloudletSpec,
    DatacenterSpec,
    ScenarioSpec,
    VmSpec,
    check_scenario_sizes,
)

#: Table V ranges/constants.
VM_MIPS_RANGE = (500.0, 4000.0)
VM_SIZE = 5000.0
VM_RAM = 512.0
VM_BW = 500.0

#: Table VI ranges/constants.
CLOUDLET_LENGTH_RANGE = (1000.0, 20000.0)
CLOUDLET_FILE_SIZE = 300.0
CLOUDLET_OUTPUT_SIZE = 300.0

#: Table VII ranges (the paper prints them high-to-low; stored low-to-high).
COST_PER_MEM_RANGE = (0.01, 0.05)
COST_PER_STORAGE_RANGE = (0.001, 0.004)
COST_PER_BW_RANGE = (0.01, 0.05)
COST_PER_CPU = 3.0


def heterogeneous_scenario(
    num_vms: int,
    num_cloudlets: int,
    num_datacenters: int = 4,
    seed: int | None = 0,
    name: str | None = None,
) -> ScenarioSpec:
    """Build the paper's heterogeneous scenario.

    Parameters
    ----------
    num_vms:
        Number of VMs with uniformly random MIPS (paper sweep: 50-950).
    num_cloudlets:
        Number of cloudlets with uniformly random lengths (paper: up to
        5 000).
    num_datacenters:
        Number of datacenters with independently drawn Table VII prices.
        Four keeps HBO's datacenter ranking meaningful at every sweep point.
    seed:
        Root seed; VM, cloudlet and datacenter draws use independent
        derived streams so changing e.g. ``num_cloudlets`` does not reshuffle
        the VM fleet.
    """
    check_scenario_sizes(num_vms, num_cloudlets, num_datacenters)

    vm_rng = spawn_rng(seed, "hetero/vms")
    cl_rng = spawn_rng(seed, "hetero/cloudlets")
    dc_rng = spawn_rng(seed, "hetero/datacenters")

    datacenters = tuple(
        DatacenterSpec(
            characteristics=DatacenterCharacteristics(
                cost_per_mem=float(dc_rng.uniform(*COST_PER_MEM_RANGE)),
                cost_per_storage=float(dc_rng.uniform(*COST_PER_STORAGE_RANGE)),
                cost_per_bw=float(dc_rng.uniform(*COST_PER_BW_RANGE)),
                cost_per_cpu=COST_PER_CPU,
            ),
            host_pes=64,
            host_mips=VM_MIPS_RANGE[1],
            host_ram=64 * VM_RAM,
            host_bw=64 * VM_BW,
            host_storage=64 * VM_SIZE * max(1, num_vms // num_datacenters // 64 + 1),
        )
        for _ in range(num_datacenters)
    )
    mips = vm_rng.uniform(*VM_MIPS_RANGE, size=num_vms)
    vms = tuple(
        VmSpec(mips=float(m), pes=1, ram=VM_RAM, bw=VM_BW, size=VM_SIZE) for m in mips
    )
    lengths = cl_rng.uniform(*CLOUDLET_LENGTH_RANGE, size=num_cloudlets)
    cloudlets = tuple(
        CloudletSpec(
            length=float(length),
            pes=1,
            file_size=CLOUDLET_FILE_SIZE,
            output_size=CLOUDLET_OUTPUT_SIZE,
        )
        for length in lengths
    )
    vm_datacenter = tuple(i % num_datacenters for i in range(num_vms))
    return ScenarioSpec(
        name=name or f"heterogeneous-{num_vms}vms-{num_cloudlets}cl",
        datacenters=datacenters,
        vms=vms,
        cloudlets=cloudlets,
        vm_datacenter=vm_datacenter,
        seed=seed,
    )


__all__ = [
    "heterogeneous_scenario",
    "VM_MIPS_RANGE",
    "CLOUDLET_LENGTH_RANGE",
    "COST_PER_MEM_RANGE",
    "COST_PER_STORAGE_RANGE",
    "COST_PER_BW_RANGE",
    "COST_PER_CPU",
]
