"""Scenario value objects.

A :class:`ScenarioSpec` is a complete, immutable description of one
experiment instance: the datacenters (with Table VII unit costs), the VMs
(Table III / V) and the cloudlets (Table IV / VI), plus which datacenter
each VM lives in.  Schedulers see scenarios only through the array views
(:meth:`ScenarioSpec.arrays`), which is also what keeps the hot paths
numpy-vectorizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.vm import Vm
from repro.core.checks import check_number


@dataclass(frozen=True, slots=True)
class VmSpec:
    """Immutable description of a VM (Table III / Table V row)."""

    mips: float
    pes: int = 1
    ram: float = 512.0
    bw: float = 500.0
    size: float = 5000.0

    def __post_init__(self) -> None:
        check_number("mips", self.mips, gt=0)
        check_number("pes", self.pes, ge=1, integer=True)
        check_number("ram", self.ram, ge=0)
        check_number("bw", self.bw, ge=0)
        check_number("size", self.size, ge=0)

    def build(self, vm_id: int, cloudlet_scheduler=None) -> Vm:
        """Materialise a runtime :class:`~repro.cloud.vm.Vm`."""
        return Vm(
            vm_id=vm_id,
            mips=self.mips,
            pes=self.pes,
            ram=self.ram,
            bw=self.bw,
            size=self.size,
            cloudlet_scheduler=cloudlet_scheduler,
        )


@dataclass(frozen=True, slots=True)
class CloudletSpec:
    """Immutable description of a cloudlet (Table IV / Table VI row)."""

    length: float
    pes: int = 1
    file_size: float = 300.0
    output_size: float = 300.0

    def __post_init__(self) -> None:
        check_number("length", self.length, gt=0)
        check_number("pes", self.pes, ge=1, integer=True)
        check_number("file_size", self.file_size, ge=0)
        check_number("output_size", self.output_size, ge=0)

    def build(self, cloudlet_id: int) -> Cloudlet:
        """Materialise a runtime :class:`~repro.cloud.cloudlet.Cloudlet`."""
        return Cloudlet(
            cloudlet_id=cloudlet_id,
            length=self.length,
            pes=self.pes,
            file_size=self.file_size,
            output_size=self.output_size,
        )


@dataclass(frozen=True, slots=True)
class DatacenterSpec:
    """Immutable description of a datacenter: pricing + host sizing.

    Host sizing is synthesized at build time so that the datacenter can hold
    its share of VMs: the simulation façade computes per-datacenter host
    requirements from the VM specs it must place.
    """

    characteristics: DatacenterCharacteristics = field(
        default_factory=DatacenterCharacteristics
    )
    #: PEs per host created in this datacenter.
    host_pes: int = 32
    #: MIPS per host PE (must cover the fastest VM assigned here).
    host_mips: float = 4000.0
    #: host RAM in MB.
    host_ram: float = 65536.0
    #: host bandwidth in Mbit/s.
    host_bw: float = 100_000.0
    #: host storage in MB.
    host_storage: float = 10_000_000.0

    def __post_init__(self) -> None:
        check_number("host_pes", self.host_pes, ge=1, integer=True)
        check_number("host_mips", self.host_mips, gt=0)
        check_number("host_ram", self.host_ram, ge=0)
        check_number("host_bw", self.host_bw, ge=0)
        check_number("host_storage", self.host_storage, ge=0)


def check_scenario_sizes(num_vms, num_cloudlets, num_datacenters) -> None:
    """The paper builders' size rule: whole counts, no datacenter left empty."""
    check_number("num_vms", num_vms, ge=1, integer=True)
    check_number("num_cloudlets", num_cloudlets, ge=1, integer=True)
    check_number("num_datacenters", num_datacenters, ge=1, le=num_vms, integer=True)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete experiment instance.

    Attributes
    ----------
    name:
        Scenario label used in reports.
    datacenters:
        Datacenter descriptions (pricing + host sizing).
    vms:
        VM descriptions, index-aligned with ``vm_datacenter``.
    cloudlets:
        Cloudlet descriptions.
    vm_datacenter:
        For each VM index, the index of the datacenter hosting it.
    seed:
        Seed the scenario was generated from (metadata; generators also
        derive their streams from it).
    """

    name: str
    datacenters: tuple[DatacenterSpec, ...]
    vms: tuple[VmSpec, ...]
    cloudlets: tuple[CloudletSpec, ...]
    vm_datacenter: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.datacenters:
            raise ValueError("scenario requires at least one datacenter")
        if not self.vms:
            raise ValueError("scenario requires at least one VM")
        if not self.cloudlets:
            raise ValueError("scenario requires at least one cloudlet")
        if len(self.vm_datacenter) != len(self.vms):
            raise ValueError("vm_datacenter must be index-aligned with vms")
        n_dc = len(self.datacenters)
        for vm_idx, dc_idx in enumerate(self.vm_datacenter):
            if not 0 <= dc_idx < n_dc:
                raise ValueError(f"vm {vm_idx} mapped to invalid datacenter {dc_idx}")

    # -- sizes -------------------------------------------------------------------

    @property
    def num_vms(self) -> int:
        return len(self.vms)

    @property
    def num_cloudlets(self) -> int:
        return len(self.cloudlets)

    @property
    def num_datacenters(self) -> int:
        return len(self.datacenters)

    def vms_in_datacenter(self, dc_idx: int) -> Iterator[int]:
        """VM indices placed in datacenter ``dc_idx``."""
        for vm_idx, dc in enumerate(self.vm_datacenter):
            if dc == dc_idx:
                yield vm_idx

    # -- array views ---------------------------------------------------------------

    def arrays(self) -> "ScenarioArrays":
        """Vectorised view of the scenario (cached per instance)."""
        cached = getattr(self, "_arrays_cache", None)
        if cached is None:
            cached = ScenarioArrays.from_spec(self)
            object.__setattr__(self, "_arrays_cache", cached)
        return cached


@dataclass(frozen=True)
class ScenarioArrays:
    """Numpy views over a :class:`ScenarioSpec` for vectorised consumers."""

    cloudlet_length: np.ndarray
    cloudlet_pes: np.ndarray
    cloudlet_file_size: np.ndarray
    cloudlet_output_size: np.ndarray
    vm_mips: np.ndarray
    vm_pes: np.ndarray
    vm_ram: np.ndarray
    vm_bw: np.ndarray
    vm_size: np.ndarray
    vm_datacenter: np.ndarray
    dc_cost_per_mem: np.ndarray
    dc_cost_per_storage: np.ndarray
    dc_cost_per_bw: np.ndarray
    dc_cost_per_cpu: np.ndarray

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "ScenarioArrays":
        return cls(
            cloudlet_length=np.array([c.length for c in spec.cloudlets], dtype=float),
            cloudlet_pes=np.array([c.pes for c in spec.cloudlets], dtype=np.int64),
            cloudlet_file_size=np.array([c.file_size for c in spec.cloudlets], dtype=float),
            cloudlet_output_size=np.array(
                [c.output_size for c in spec.cloudlets], dtype=float
            ),
            vm_mips=np.array([v.mips for v in spec.vms], dtype=float),
            vm_pes=np.array([v.pes for v in spec.vms], dtype=np.int64),
            vm_ram=np.array([v.ram for v in spec.vms], dtype=float),
            vm_bw=np.array([v.bw for v in spec.vms], dtype=float),
            vm_size=np.array([v.size for v in spec.vms], dtype=float),
            vm_datacenter=np.array(spec.vm_datacenter, dtype=np.int64),
            dc_cost_per_mem=np.array(
                [d.characteristics.cost_per_mem for d in spec.datacenters], dtype=float
            ),
            dc_cost_per_storage=np.array(
                [d.characteristics.cost_per_storage for d in spec.datacenters], dtype=float
            ),
            dc_cost_per_bw=np.array(
                [d.characteristics.cost_per_bw for d in spec.datacenters], dtype=float
            ),
            dc_cost_per_cpu=np.array(
                [d.characteristics.cost_per_cpu for d in spec.datacenters], dtype=float
            ),
        )

    @property
    def num_cloudlets(self) -> int:
        return int(self.cloudlet_length.shape[0])

    @property
    def num_vms(self) -> int:
        return int(self.vm_mips.shape[0])

    @property
    def num_datacenters(self) -> int:
        return int(self.dc_cost_per_cpu.shape[0])

    def expected_exec_time(self, cloudlet_idx: int) -> np.ndarray:
        """Per-VM expected completion-time row ``d_ij`` (Eq. 6 of the paper).

        ``d_ij = length_i / (pes_j * mips_j) + file_size_i / bw_j``

        Bandwidth terms with ``bw_j == 0`` contribute zero (no transfer cost).
        """
        length, infile = self.cloudlet_length[cloudlet_idx], self.cloudlet_file_size[cloudlet_idx]
        return self._eq6(length, infile, self.vm_pes, self.vm_mips, self.vm_bw)

    def assigned_exec_time(self, assignment: np.ndarray) -> np.ndarray:
        """Eq. 6 time of every cloudlet on its assigned VM.

        Entry ``i`` equals ``expected_exec_time(i)[assignment[i]]`` bit for bit.
        """
        pes, mips, bw = self.vm_pes[assignment], self.vm_mips[assignment], self.vm_bw[assignment]
        return self._eq6(self.cloudlet_length, self.cloudlet_file_size, pes, mips, bw)

    @staticmethod
    def _eq6(length, infile, pes, mips, bw) -> np.ndarray:
        """Eq. 6, element-wise over cloudlet and (gathered) VM columns."""
        compute = length / (pes * mips)
        with np.errstate(divide="ignore"):
            transfer = np.where(bw > 0, infile / bw, 0.0)
        return compute + transfer

    def exec_time_matrix(self) -> np.ndarray:
        """Full ``(num_cloudlets, num_vms)`` matrix of Eq. 6 values.

        Only suitable for scenarios where the product fits in memory; large
        sweeps use :meth:`expected_exec_time` row by row.
        """
        compute = np.outer(self.cloudlet_length, 1.0 / (self.vm_pes * self.vm_mips))
        with np.errstate(divide="ignore"):
            inv_bw = np.where(self.vm_bw > 0, 1.0 / self.vm_bw, 0.0)
        transfer = np.outer(self.cloudlet_file_size, inv_bw)
        return compute + transfer

    def take(self, cloudlet_indices, vm_indices) -> "ScenarioArrays":
        """Sub-problem view: the selected cloudlets over the selected VMs.

        Local index ``j`` of the result refers to global index
        ``vm_indices[j]`` (and likewise for cloudlets) — callers own the
        mapping back.  Datacenter cost vectors are kept whole because
        ``vm_datacenter`` still indexes into them.  Used wherever a batch
        scheduler solves part of a problem: failure-aware rescheduling
        re-runs it over the surviving fleet, and the online
        :class:`~repro.schedulers.online.BatchAdapter` over one arrival
        wave on every VM.
        """
        ci = np.asarray(cloudlet_indices, dtype=np.int64)
        vi = np.asarray(vm_indices, dtype=np.int64)
        if ci.size == 0 or vi.size == 0:
            raise ValueError("sub-problem needs at least one cloudlet and one VM")
        return ScenarioArrays(
            cloudlet_length=self.cloudlet_length[ci],
            cloudlet_pes=self.cloudlet_pes[ci],
            cloudlet_file_size=self.cloudlet_file_size[ci],
            cloudlet_output_size=self.cloudlet_output_size[ci],
            vm_mips=self.vm_mips[vi],
            vm_pes=self.vm_pes[vi],
            vm_ram=self.vm_ram[vi],
            vm_bw=self.vm_bw[vi],
            vm_size=self.vm_size[vi],
            vm_datacenter=self.vm_datacenter[vi],
            dc_cost_per_mem=self.dc_cost_per_mem,
            dc_cost_per_storage=self.dc_cost_per_storage,
            dc_cost_per_bw=self.dc_cost_per_bw,
            dc_cost_per_cpu=self.dc_cost_per_cpu,
        )


__all__ = [
    "VmSpec",
    "CloudletSpec",
    "DatacenterSpec",
    "ScenarioSpec",
    "ScenarioArrays",
    "check_scenario_sizes",
]
