"""The homogeneous scenario (paper Tables III & IV).

Every VM: 1000 MIPS, 1 PE, 512 MB RAM, 500 Mbit/s, 5000 MB image.
Every cloudlet: 250 MI, 1 PE, 300 MB in/out files.

The paper sweeps 1 000-100 000 VMs against 1 000 000 cloudlets; both counts
are parameters here so the sweep can be run scaled down (see DESIGN.md §2).
The family itself is defined once, as
:func:`~repro.workloads.streaming.homogeneous_stream`.
"""

from __future__ import annotations

from repro.workloads.spec import CloudletSpec, ScenarioSpec, VmSpec

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
    """Build the paper's homogeneous scenario: ``homogeneous_stream(...).to_spec()``.

    The spec holds one :class:`VmSpec` and one :class:`CloudletSpec`
    object, each repeated.  See
    :func:`~repro.workloads.streaming.homogeneous_stream` for the
    parameters.
    """
    # Imported here: streaming.py imports this module's table constants.
    from repro.workloads.streaming import homogeneous_stream

    return homogeneous_stream(
        num_vms, num_cloudlets, num_datacenters, seed, name=name
    ).to_spec()


__all__ = ["homogeneous_scenario", "HOMOGENEOUS_VM", "HOMOGENEOUS_CLOUDLET"]
