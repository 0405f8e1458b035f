"""The heterogeneous scenario (paper Tables V, VI & VII).

VMs: MIPS uniform in [500, 4000]; other attributes as in Table V.
Cloudlets: length uniform in [1000, 20000]; 300 MB in/out files.
Datacenters: unit costs drawn uniformly from the Table VII ranges
(memory 0.01-0.05, storage 0.001-0.004, bandwidth 0.01-0.05,
processing fixed at 3).

The paper reduces the environment to 50-950 VMs and up to 5 000 cloudlets.
The family itself is defined once, as
:func:`~repro.workloads.streaming.heterogeneous_stream`.
"""

from __future__ import annotations

from repro.workloads.spec import ScenarioSpec

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
    """Build the paper's heterogeneous scenario: ``heterogeneous_stream(...).to_spec()``.

    See :func:`~repro.workloads.streaming.heterogeneous_stream` for the
    parameters and the seeding.
    """
    # Imported here: streaming.py imports this module's table constants.
    from repro.workloads.streaming import heterogeneous_stream

    return heterogeneous_stream(
        num_vms, num_cloudlets, num_datacenters, seed, name=name
    ).to_spec()


__all__ = [
    "heterogeneous_scenario",
    "VM_MIPS_RANGE",
    "CLOUDLET_LENGTH_RANGE",
    "COST_PER_MEM_RANGE",
    "COST_PER_STORAGE_RANGE",
    "COST_PER_BW_RANGE",
    "COST_PER_CPU",
]
