"""Seeded hypothesis strategies for the streaming property suite.

Every scenario drawn here lives in the *exact arithmetic domain*: VM MIPS
are powers of two, cloudlet lengths are integers, and every VM attribute
and cost constant is a dyadic rational (exactly representable in binary
floating point).  Execution times ``length / mips`` are then exact
divisions, per-cloudlet costs are exact products, and all the partial
sums either pipeline forms stay far below 2**53 — so chunked and
monolithic computations must agree **bit-for-bit**, and any difference a
property test reports is a real ordering/state bug, never float noise.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.workloads.spec import (
    CloudletSpec,
    DatacenterSpec,
    ScenarioSpec,
    VmSpec,
)

#: power-of-two MIPS keep ``length / mips`` an exact shift.
DYADIC_MIPS = (256.0, 512.0, 1024.0, 2048.0)
#: dyadic cost constants ($ per unit); products with dyadic attributes
#: are exact.
DYADIC_COSTS = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 3.0)
#: dyadic VM RAM / image sizes (power-of-two MB).
DYADIC_RAM = (128.0, 256.0, 512.0)
DYADIC_SIZE = (1024.0, 4096.0)
#: dyadic cloudlet file/output sizes (MB).
DYADIC_FILE = (0.0, 128.0, 256.0)

#: chunk sizes exercised against every scenario — 1 (degenerate), small
#: primes (chunks never align with VM counts), and larger-than-workload.
CHUNK_SIZES = (1, 3, 7, 16, 50, 1_000)


def dyadic_cost() -> st.SearchStrategy[float]:
    return st.sampled_from(DYADIC_COSTS)


@st.composite
def dyadic_scenarios(
    draw,
    max_vms: int = 12,
    max_cloudlets: int = 120,
    max_datacenters: int = 3,
) -> ScenarioSpec:
    """A random single-PE scenario whose metrics are exact in float64."""
    num_datacenters = draw(st.integers(1, max_datacenters))
    num_vms = draw(st.integers(1, max_vms))
    num_cloudlets = draw(st.integers(1, max_cloudlets))
    datacenters = tuple(
        DatacenterSpec(
            characteristics=DatacenterCharacteristics(
                cost_per_mem=draw(dyadic_cost()),
                cost_per_storage=draw(dyadic_cost()),
                cost_per_bw=draw(dyadic_cost()),
                cost_per_cpu=draw(dyadic_cost()),
            )
        )
        for _ in range(num_datacenters)
    )
    vms = tuple(
        VmSpec(
            mips=draw(st.sampled_from(DYADIC_MIPS)),
            pes=1,
            ram=draw(st.sampled_from(DYADIC_RAM)),
            bw=500.0,
            size=draw(st.sampled_from(DYADIC_SIZE)),
        )
        for _ in range(num_vms)
    )
    cloudlets = tuple(
        CloudletSpec(
            length=float(draw(st.integers(1, 4096))),
            pes=1,
            file_size=draw(st.sampled_from(DYADIC_FILE)),
            output_size=draw(st.sampled_from(DYADIC_FILE)),
        )
        for _ in range(num_cloudlets)
    )
    vm_datacenter = tuple(
        draw(st.integers(0, num_datacenters - 1)) for _ in range(num_vms)
    )
    seed = draw(st.integers(0, 2**16))
    return ScenarioSpec(
        name=f"prop-dyadic-{num_vms}x{num_cloudlets}",
        datacenters=datacenters,
        vms=vms,
        cloudlets=cloudlets,
        vm_datacenter=vm_datacenter,
        seed=seed,
    )


@st.composite
def float_scenarios(
    draw,
    max_vms: int = 12,
    max_cloudlets: int = 120,
    max_datacenters: int = 3,
) -> ScenarioSpec:
    """A random single-PE scenario *outside* the exact domain.

    Arbitrary float MIPS, lengths and prices make every ``length / mips``
    and every running sum round, so assignment-level comparisons against
    the reference oracles cover the float tie-breaking the dyadic domain
    never exercises.  Half the fleets share one MIPS rating, which routes
    greedy and HBO through their uniform-fleet heaps.
    """
    num_datacenters = draw(st.integers(1, max_datacenters))
    num_vms = draw(st.integers(1, max_vms))
    num_cloudlets = draw(st.integers(1, max_cloudlets))
    price = st.floats(0.0, 5.0, allow_nan=False)
    mips = st.floats(100.0, 5000.0, allow_nan=False)
    uniform_mips = draw(mips) if draw(st.booleans()) else None
    datacenters = tuple(
        DatacenterSpec(
            characteristics=DatacenterCharacteristics(
                cost_per_mem=draw(price),
                cost_per_storage=draw(price),
                cost_per_bw=draw(price),
                cost_per_cpu=draw(price),
            )
        )
        for _ in range(num_datacenters)
    )
    vms = tuple(
        VmSpec(
            mips=uniform_mips if uniform_mips is not None else draw(mips),
            pes=1,
            ram=draw(st.floats(128.0, 4096.0)),
            bw=draw(st.floats(100.0, 1000.0)),
            size=draw(st.floats(1000.0, 20000.0)),
        )
        for _ in range(num_vms)
    )
    cloudlets = tuple(
        CloudletSpec(length=draw(st.floats(1.0, 50_000.0, allow_nan=False)))
        for _ in range(num_cloudlets)
    )
    vm_datacenter = tuple(
        draw(st.integers(0, num_datacenters - 1)) for _ in range(num_vms)
    )
    return ScenarioSpec(
        name=f"prop-float-{num_vms}x{num_cloudlets}",
        datacenters=datacenters,
        vms=vms,
        cloudlets=cloudlets,
        vm_datacenter=vm_datacenter,
        seed=draw(st.integers(0, 2**16)),
    )


def chunk_sizes() -> st.SearchStrategy[int]:
    return st.sampled_from(CHUNK_SIZES)


def family_points(
    max_vms: int = 15, max_cloudlets: int = 150
) -> st.SearchStrategy[tuple[int, int, int]]:
    """(num_vms, num_cloudlets, seed) for the paper's generator families.

    ``num_vms`` starts at 4 — the generators place VMs round-robin over
    their default datacenters (2 homogeneous, 4 heterogeneous) and reject
    fleets smaller than the datacenter count.
    """
    return st.tuples(
        st.integers(4, max_vms),
        st.integers(1, max_cloudlets),
        st.integers(0, 2**16),
    )
