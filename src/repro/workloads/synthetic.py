"""Distribution-driven synthetic workload builder.

The paper's two setups are special cases (constant and uniform draws), but
the extension experiments — burstiness ablations, skewed task mixes — need
richer shapes.  :class:`SyntheticWorkloadBuilder` assembles a
:class:`~repro.workloads.spec.ScenarioSpec` from named distributions,
validated and clipped to physical bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.workloads.spec import CloudletSpec, DatacenterSpec, ScenarioSpec, VmSpec

#: distribution name -> required parameter -> its ``check_number`` bounds
#: (every numeric parameter must also be finite; ``values`` is a list).
_SUPPORTED: Mapping[str, Mapping[str, dict]] = {
    "constant": {"value": {}},
    "uniform": {"low": {}, "high": {}},
    "normal": {"mean": {}, "std": {"ge": 0}},
    "lognormal": {"mean": {}, "sigma": {"ge": 0}},
    "pareto": {"shape": {"gt": 0}, "scale": {"gt": 0}},
    "exponential": {"scale": {"ge": 0}},
    "bimodal": {"low": {}, "high": {}, "p_high": {"ge": 0, "le": 1}},
    "choice": {"values": {}},
}


@dataclass(frozen=True)
class DistributionSpec:
    """A named random distribution with parameters.

    Supported kinds: ``constant``, ``uniform``, ``normal``, ``lognormal``,
    ``pareto``, ``exponential``, ``bimodal`` (mixture of two constants) and
    ``choice`` (uniform over a finite set).  Each numeric parameter is
    checked at construction and named in the error.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SUPPORTED:
            raise ValueError(
                f"unknown distribution {self.kind!r}; supported: {sorted(_SUPPORTED)}"
            )
        missing = [p for p in _SUPPORTED[self.kind] if p not in self.params]
        if missing:
            raise ValueError(f"distribution {self.kind!r} missing parameters {missing}")
        p = self.params
        if self.kind == "choice":
            if len(p["values"]) == 0:
                raise ValueError("choice distribution needs at least one value")
            for i, value in enumerate(p["values"]):
                check_number(f"values[{i}]", value)
        else:
            for name, bounds in _SUPPORTED[self.kind].items():
                check_number(name, p[name], **bounds)
        if self.kind == "uniform":
            check_number("high", p["high"], ge=p["low"])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples."""
        p = self.params
        if self.kind == "constant":
            return np.full(size, float(p["value"]))  # type: ignore[arg-type]
        if self.kind == "uniform":
            return rng.uniform(float(p["low"]), float(p["high"]), size)  # type: ignore[arg-type]
        if self.kind == "normal":
            return rng.normal(float(p["mean"]), float(p["std"]), size)  # type: ignore[arg-type]
        if self.kind == "lognormal":
            return rng.lognormal(float(p["mean"]), float(p["sigma"]), size)  # type: ignore[arg-type]
        if self.kind == "pareto":
            shape = float(p["shape"])  # type: ignore[arg-type]
            scale = float(p["scale"])  # type: ignore[arg-type]
            return scale * (1.0 + rng.pareto(shape, size))
        if self.kind == "exponential":
            return rng.exponential(float(p["scale"]), size)  # type: ignore[arg-type]
        if self.kind == "bimodal":
            low = float(p["low"])  # type: ignore[arg-type]
            high = float(p["high"])  # type: ignore[arg-type]
            picks = rng.random(size) < float(p["p_high"])  # type: ignore[arg-type]
            return np.where(picks, high, low)
        if self.kind == "choice":
            return rng.choice(np.asarray(p["values"], dtype=float), size)
        raise AssertionError(f"unhandled kind {self.kind}")  # pragma: no cover


class SyntheticWorkloadBuilder:
    """Fluent builder for synthetic scenarios.

    Examples
    --------
    >>> spec = (
    ...     SyntheticWorkloadBuilder(seed=3)
    ...     .vms(10, mips=DistributionSpec("uniform", {"low": 500, "high": 4000}))
    ...     .cloudlets(100, length=DistributionSpec("pareto", {"shape": 2.0, "scale": 1000.0}))
    ...     .datacenters(2)
    ...     .build("pareto-mix")
    ... )
    >>> spec.num_vms, spec.num_cloudlets, spec.num_datacenters
    (10, 100, 2)
    """

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed
        self._num_vms = 0
        self._num_cloudlets = 0
        self._num_datacenters = 1
        self._vm_mips = DistributionSpec("constant", {"value": 1000.0})
        self._vm_ram = DistributionSpec("constant", {"value": 512.0})
        self._vm_bw = DistributionSpec("constant", {"value": 500.0})
        self._vm_size = DistributionSpec("constant", {"value": 5000.0})
        self._cl_length = DistributionSpec("constant", {"value": 250.0})
        self._cl_file_size = DistributionSpec("constant", {"value": 300.0})
        self._cl_output_size = DistributionSpec("constant", {"value": 300.0})
        self._cost_per_mem = DistributionSpec("uniform", {"low": 0.01, "high": 0.05})
        self._cost_per_storage = DistributionSpec("uniform", {"low": 0.001, "high": 0.004})
        self._cost_per_bw = DistributionSpec("uniform", {"low": 0.01, "high": 0.05})
        self._cost_per_cpu = DistributionSpec("constant", {"value": 3.0})

    # -- fluent configuration ---------------------------------------------------

    def vms(
        self,
        count: int,
        mips: DistributionSpec | None = None,
        ram: DistributionSpec | None = None,
        bw: DistributionSpec | None = None,
        size: DistributionSpec | None = None,
    ) -> "SyntheticWorkloadBuilder":
        """Configure the VM fleet."""
        self._num_vms = check_number("count", count, ge=1, integer=True)
        self._vm_mips = mips or self._vm_mips
        self._vm_ram = ram or self._vm_ram
        self._vm_bw = bw or self._vm_bw
        self._vm_size = size or self._vm_size
        return self

    def cloudlets(
        self,
        count: int,
        length: DistributionSpec | None = None,
        file_size: DistributionSpec | None = None,
        output_size: DistributionSpec | None = None,
    ) -> "SyntheticWorkloadBuilder":
        """Configure the cloudlet batch."""
        self._num_cloudlets = check_number("count", count, ge=1, integer=True)
        self._cl_length = length or self._cl_length
        self._cl_file_size = file_size or self._cl_file_size
        self._cl_output_size = output_size or self._cl_output_size
        return self

    def datacenters(
        self,
        count: int,
        cost_per_mem: DistributionSpec | None = None,
        cost_per_storage: DistributionSpec | None = None,
        cost_per_bw: DistributionSpec | None = None,
        cost_per_cpu: DistributionSpec | None = None,
    ) -> "SyntheticWorkloadBuilder":
        """Configure datacenter count and pricing distributions."""
        self._num_datacenters = check_number("count", count, ge=1, integer=True)
        self._cost_per_mem = cost_per_mem or self._cost_per_mem
        self._cost_per_storage = cost_per_storage or self._cost_per_storage
        self._cost_per_bw = cost_per_bw or self._cost_per_bw
        self._cost_per_cpu = cost_per_cpu or self._cost_per_cpu
        return self

    # -- build -------------------------------------------------------------------

    def build(self, name: str = "synthetic") -> ScenarioSpec:
        """Sample every attribute and assemble the scenario."""
        if self._num_vms < 1:
            raise ValueError("call .vms(count) before .build()")
        if self._num_cloudlets < 1:
            raise ValueError("call .cloudlets(count) before .build()")
        check_number("num_datacenters", self._num_datacenters, le=self._num_vms)

        vm_rng = spawn_rng(self.seed, "synthetic/vms")
        cl_rng = spawn_rng(self.seed, "synthetic/cloudlets")
        dc_rng = spawn_rng(self.seed, "synthetic/datacenters")

        def positive(dist: DistributionSpec, rng: np.random.Generator, size: int, floor: float) -> np.ndarray:
            return np.maximum(dist.sample(rng, size), floor)

        mips = positive(self._vm_mips, vm_rng, self._num_vms, 1.0)
        ram = positive(self._vm_ram, vm_rng, self._num_vms, 0.0)
        bw = positive(self._vm_bw, vm_rng, self._num_vms, 0.0)
        size = positive(self._vm_size, vm_rng, self._num_vms, 0.0)
        vms = tuple(
            VmSpec(mips=float(m), ram=float(r), bw=float(b), size=float(s))
            for m, r, b, s in zip(mips, ram, bw, size)
        )

        length = positive(self._cl_length, cl_rng, self._num_cloudlets, 1.0)
        file_size = positive(self._cl_file_size, cl_rng, self._num_cloudlets, 0.0)
        output_size = positive(self._cl_output_size, cl_rng, self._num_cloudlets, 0.0)
        cloudlets = tuple(
            CloudletSpec(length=float(ln), file_size=float(f), output_size=float(o))
            for ln, f, o in zip(length, file_size, output_size)
        )

        host_mips = float(mips.max())
        datacenters = tuple(
            DatacenterSpec(
                characteristics=DatacenterCharacteristics(
                    cost_per_mem=float(positive(self._cost_per_mem, dc_rng, 1, 0.0)[0]),
                    cost_per_storage=float(
                        positive(self._cost_per_storage, dc_rng, 1, 0.0)[0]
                    ),
                    cost_per_bw=float(positive(self._cost_per_bw, dc_rng, 1, 0.0)[0]),
                    cost_per_cpu=float(positive(self._cost_per_cpu, dc_rng, 1, 0.0)[0]),
                ),
                host_pes=64,
                host_mips=host_mips,
                host_ram=float(64 * ram.max() if ram.size else 0.0),
                host_bw=float(64 * bw.max() if bw.size else 0.0),
                host_storage=float(
                    64 * size.max() * max(1, self._num_vms // self._num_datacenters // 64 + 1)
                ),
            )
            for _ in range(self._num_datacenters)
        )
        vm_datacenter = tuple(i % self._num_datacenters for i in range(self._num_vms))
        return ScenarioSpec(
            name=name,
            datacenters=datacenters,
            vms=vms,
            cloudlets=cloudlets,
            vm_datacenter=vm_datacenter,
            seed=self.seed,
        )


__all__ = ["DistributionSpec", "SyntheticWorkloadBuilder"]
