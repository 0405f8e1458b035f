"""Chunked scenario generation for the streaming execution path.

The paper's homogeneous study (Figs. 4-5) runs 1 000 000 cloudlets; the
monolithic :class:`~repro.workloads.spec.ScenarioSpec` route materialises
every cloudlet as a Python object plus fourteen full-length numpy columns.
:class:`ScenarioChunks` instead keeps only the O(num_vms) VM/datacenter
columns resident and synthesises the cloudlet columns chunk by chunk, so
the peak footprint of a sweep point is O(num_vms + chunk_size) regardless
of the cloudlet count.

Chunking never changes the workload: every chunk pass re-derives its
random streams from the same ``(seed, label)`` pair the monolithic
generators use, and ``numpy.random.Generator`` draws are consumed
sequentially, so the concatenation of the chunked columns is bit-for-bit
identical to the monolithic arrays (pinned by ``tests/properties``).

Example — chunked generation matches the monolithic arrays exactly::

    >>> import numpy as np
    >>> from repro.workloads.homogeneous import homogeneous_scenario
    >>> from repro.workloads.streaming import ScenarioChunks, homogeneous_stream
    >>> stream = homogeneous_stream(4, 10, chunk_size=3, seed=0)
    >>> stream.num_chunks
    4
    >>> spec = homogeneous_scenario(4, 10, seed=0)
    >>> chunks = [c.cloudlet_length for _, c in stream]
    >>> bool(np.array_equal(np.concatenate(chunks), spec.arrays().cloudlet_length))
    True
    >>> stream.name == spec.name
    True

Streams are re-iterable (each pass restarts the derived generators) and
picklable, so they ship to spawn-based sweep workers like specs do::

    >>> first = [c.cloudlet_length.sum() for _, c in stream]
    >>> second = [c.cloudlet_length.sum() for _, c in stream]
    >>> first == second
    True
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.core.checks import check_number
from repro.core.rng import spawn_rng
from repro.workloads.heterogeneous import (
    CLOUDLET_FILE_SIZE,
    CLOUDLET_LENGTH_RANGE,
    CLOUDLET_OUTPUT_SIZE,
    COST_PER_BW_RANGE,
    COST_PER_CPU,
    COST_PER_MEM_RANGE,
    COST_PER_STORAGE_RANGE,
    VM_BW,
    VM_MIPS_RANGE,
    VM_RAM,
    VM_SIZE,
)
from repro.workloads.homogeneous import HOMOGENEOUS_CLOUDLET, HOMOGENEOUS_VM
from repro.workloads.spec import (
    CloudletSpec,
    DatacenterSpec,
    ScenarioArrays,
    ScenarioSpec,
    VmSpec,
    check_scenario_sizes,
)

#: Default slice width of the streaming path.  64k cloudlets keep every
#: per-chunk temporary around half a megabyte while amortising numpy call
#: overhead; ``benchmarks/bench_paperscale_homogeneous.py`` sweeps this.
DEFAULT_CHUNK_SIZE = 65_536

#: cloudlet columns a chunk source must produce, in ScenarioArrays order.
_CLOUDLET_FIELDS = (
    "cloudlet_length",
    "cloudlet_pes",
    "cloudlet_file_size",
    "cloudlet_output_size",
)

#: resident VM and datacenter columns, in ScenarioArrays order.
_FLEET_FIELDS = (
    "vm_mips", "vm_pes", "vm_ram", "vm_bw", "vm_size", "vm_datacenter",
    "dc_cost_per_mem", "dc_cost_per_storage", "dc_cost_per_bw", "dc_cost_per_cpu",
)


#: One sequential pass over a cloudlet source (see ``open_pass``):
#: ``take(k)`` returns the next ``k`` cloudlets' columns.  Consumers treat
#: them as read-only: a generated source hands every chunk of a pass
#: read-only prefixes of the same arrays for the columns that do not vary.
TakeColumns = Callable[[int], dict[str, np.ndarray]]


def _constant_columns(source, **values: float) -> TakeColumns:
    """One pass's ``take`` over columns that never vary along it.

    The source's pes, file size and output size, plus any float column
    named in ``values``, are built once at the first request's length,
    read-only, and every later chunk gets a prefix of them.  A pass's
    first chunk is its longest, so they are rebuilt only for a caller
    that asks for more than it first did.
    """
    spec = {
        "cloudlet_pes": (source.pes, np.int64),
        "cloudlet_file_size": (source.file_size, float),
        "cloudlet_output_size": (source.output_size, float),
        **{name: (value, float) for name, value in values.items()},
    }
    columns: dict[str, np.ndarray] = {}

    def take(k: int) -> dict[str, np.ndarray]:
        if not columns or k > columns["cloudlet_pes"].shape[0]:
            for name, (value, dtype) in spec.items():
                columns[name] = np.full(k, value, dtype=dtype)
                columns[name].flags.writeable = False
        return {name: column[:k] for name, column in columns.items()}

    return take


def _advance_uniform_draws(rng: np.random.Generator, count: int) -> None:
    """Skip exactly ``count`` ``rng.uniform`` outputs, bit-exactly.

    ``Generator.uniform`` consumes one 64-bit word per double, and PCG64's
    ``advance`` jumps the state by an output count, so advancing by
    ``count`` lands on the identical state a ``uniform(size=count)`` draw
    would leave behind (pinned in ``tests/properties``).  Bit generators
    without ``advance`` fall back to drawing and discarding in bounded
    blocks, which is slower but still exact.
    """
    if count <= 0:
        return
    advance = getattr(rng.bit_generator, "advance", None)
    if advance is not None:
        advance(count)
        return
    remaining = count  # pragma: no cover - non-PCG64 generators only
    while remaining > 0:  # pragma: no cover
        block = min(remaining, 1 << 20)
        rng.uniform(size=block)
        remaining -= block


@dataclass(frozen=True)
class ConstantCloudlets:
    """Cloudlet source for identical cloudlets (the homogeneous workload)."""

    length: float
    pes: int = 1
    file_size: float = 300.0
    output_size: float = 300.0

    def open_pass(self, seed: int | None, start: int = 0) -> TakeColumns:
        """Every column is constant: each chunk gets read-only prefixes
        of one set of arrays built for the pass."""
        return _constant_columns(self, cloudlet_length=self.length)


@dataclass(frozen=True)
class UniformLengthCloudlets:
    """Cloudlet source drawing lengths uniformly (heterogeneous workload).

    Each pass spawns a fresh generator from ``(seed, rng_label)``; since
    ``Generator.uniform`` consumes exactly one state advance per output,
    chunked draws concatenate to the monolithic ``uniform(size=n)`` array
    bit-for-bit.
    """

    low: float
    high: float
    pes: int = 1
    file_size: float = 300.0
    output_size: float = 300.0
    rng_label: str = "hetero/cloudlets"

    def open_pass(self, seed: int | None, start: int = 0) -> TakeColumns:
        rng = spawn_rng(seed, self.rng_label)
        _advance_uniform_draws(rng, start)
        fixed = _constant_columns(self)
        return lambda k: {
            "cloudlet_length": rng.uniform(self.low, self.high, size=k),
            **fixed(k),
        }


@dataclass(frozen=True)
class MaterializedCloudlets:
    """Cloudlet source slicing pre-built columns (``ScenarioChunks.from_spec``).

    Holds full-length columns, so it is *not* memory-bounded — it exists
    for differential tests and for chunking scenarios that were already
    materialised anyway.
    """

    cloudlet_length: np.ndarray
    cloudlet_pes: np.ndarray
    cloudlet_file_size: np.ndarray
    cloudlet_output_size: np.ndarray

    def open_pass(self, seed: int | None, start: int = 0) -> TakeColumns:
        cursor = start

        def take(k: int) -> dict[str, np.ndarray]:
            nonlocal cursor
            lo, cursor = cursor, cursor + k
            return {name: getattr(self, name)[lo:cursor] for name in _CLOUDLET_FIELDS}

        return take


def _check_finite_cloudlets(cloudlets: MaterializedCloudlets) -> None:
    """One scan of the float cloudlet columns a caller supplied."""
    for name in ("cloudlet_length", "cloudlet_file_size", "cloudlet_output_size"):
        if not np.isfinite(getattr(cloudlets, name)).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ScenarioChunks:
    """A scenario whose cloudlet columns are produced in fixed-size slices.

    VM and datacenter columns (O(num_vms + num_datacenters)) are resident;
    iterating yields ``(offset, ScenarioArrays)`` pairs whose cloudlet
    columns cover ``[offset, offset + chunk)`` and whose VM/datacenter
    columns are shared references to the resident arrays.  Instances are
    immutable, re-iterable and picklable.
    """

    name: str
    seed: int | None
    chunk_size: int
    num_cloudlets: int
    cloudlets: Any  # ConstantCloudlets | UniformLengthCloudlets | MaterializedCloudlets
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

    def __post_init__(self) -> None:
        check_number("chunk_size", self.chunk_size, ge=1, integer=True)
        check_number("num_cloudlets", self.num_cloudlets, ge=1, integer=True)
        if self.vm_mips.shape[0] < 1:
            raise ValueError("stream requires at least one VM")

    # -- sizes --------------------------------------------------------------

    @property
    def num_vms(self) -> int:
        return int(self.vm_mips.shape[0])

    @property
    def num_datacenters(self) -> int:
        return int(self.dc_cost_per_cpu.shape[0])

    @property
    def num_chunks(self) -> int:
        return -(-self.num_cloudlets // self.chunk_size)  # ceil division

    # -- iteration ----------------------------------------------------------

    def chunk_offset(self, chunk_index: int) -> int:
        """First cloudlet index of chunk ``chunk_index``."""
        return chunk_index * self.chunk_size

    def __iter__(self) -> Iterator[tuple[int, ScenarioArrays]]:
        return self.iter_range(0, self.num_chunks)

    def iter_range(
        self, chunk_start: int, chunk_stop: int
    ) -> Iterator[tuple[int, ScenarioArrays]]:
        """Iterate chunks ``[chunk_start, chunk_stop)`` only.

        The underlying pass seeks straight to the range's first cloudlet
        (``open_pass(seed, start)``), so a shard can generate its slice
        without producing the preceding chunks — and the produced columns
        are bit-identical to the same chunks of a full pass (pinned in
        ``tests/properties``).
        """
        if not 0 <= chunk_start <= chunk_stop <= self.num_chunks:
            raise ValueError(
                f"chunk range [{chunk_start}, {chunk_stop}) outside "
                f"[0, {self.num_chunks})"
            )
        start = self.chunk_offset(chunk_start)
        stop = min(self.chunk_offset(chunk_stop), self.num_cloudlets)
        return self.iter_cloudlet_range(start, stop)

    def iter_cloudlet_range(
        self, start: int, stop: int
    ) -> Iterator[tuple[int, ScenarioArrays]]:
        """Iterate chunk-size slices of cloudlets ``[start, stop)``.

        Unlike :meth:`iter_range` the bounds need not be chunk-aligned:
        generation is keyed by absolute cloudlet position (``open_pass``
        seeks, and chunked draws concatenate bit-for-bit), so any slicing
        of the same range yields identical values.  Schedulers whose
        pre-passes follow non-chunk boundaries (HBO's contiguous cloudlet
        groups) read their ranges through this without materialising
        anything O(n).
        """
        if not 0 <= start <= stop <= self.num_cloudlets:
            raise ValueError(
                f"cloudlet range [{start}, {stop}) outside "
                f"[0, {self.num_cloudlets})"
            )
        offset = start
        take = self.cloudlets.open_pass(self.seed, offset)
        while offset < stop:
            k = min(self.chunk_size, stop - offset)
            yield offset, self.chunk_arrays(**take(k))
            offset += k

    def chunk_arrays(self, **cloudlet_columns: np.ndarray) -> ScenarioArrays:
        """One chunk: the given cloudlet columns over the resident fleet arrays."""
        return ScenarioArrays(
            **cloudlet_columns, **{field: getattr(self, field) for field in _FLEET_FIELDS}
        )

    def with_chunk_size(self, chunk_size: int) -> "ScenarioChunks":
        """The same workload re-sliced at a different chunk width."""
        from dataclasses import replace

        return replace(self, chunk_size=chunk_size)

    def with_cloudlets(
        self,
        cloudlet_length: np.ndarray,
        cloudlet_pes: "np.ndarray | None" = None,
        cloudlet_file_size: "np.ndarray | None" = None,
        cloudlet_output_size: "np.ndarray | None" = None,
        chunk_size: "int | None" = None,
    ) -> "ScenarioChunks":
        """The same fleet serving explicitly provided cloudlet columns.

        Swaps the cloudlet source for a :class:`MaterializedCloudlets`
        over the given columns (``pes`` defaults to 1, file/output sizes
        to 0) while the resident VM and datacenter arrays stay shared.
        The serving layer uses this to replay live submissions through
        the offline engines: the fleet keeps its name — and therefore its
        ``scheduler/{name}`` RNG stream — while the workload becomes
        whatever was submitted, in admission order.  The float columns
        are checked finite here, where they enter.
        """
        from dataclasses import replace

        length = np.ascontiguousarray(cloudlet_length, dtype=float)
        if length.ndim != 1 or length.shape[0] < 1:
            raise ValueError("cloudlet_length must be a non-empty 1-D array")
        n = int(length.shape[0])

        def _column(values, default, dtype):
            if values is None:
                return np.full(n, default, dtype=dtype)
            out = np.ascontiguousarray(values, dtype=dtype)
            if out.shape != (n,):
                raise ValueError(
                    f"cloudlet column shape {out.shape} != ({n},)"
                )
            return out

        cloudlets = MaterializedCloudlets(
            cloudlet_length=length,
            cloudlet_pes=_column(cloudlet_pes, 1, np.int64),
            cloudlet_file_size=_column(cloudlet_file_size, 0.0, float),
            cloudlet_output_size=_column(cloudlet_output_size, 0.0, float),
        )
        _check_finite_cloudlets(cloudlets)
        return replace(
            self,
            num_cloudlets=n,
            chunk_size=chunk_size if chunk_size is not None else self.chunk_size,
            cloudlets=cloudlets,
        )

    # -- conversions --------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        arrays: ScenarioArrays,
        name: str = "",
        seed: int | None = None,
        chunk_size: "int | None" = None,
    ) -> "ScenarioChunks":
        """Chunked view over already-materialised columns (no copies).

        ``chunk_size=None`` makes the whole workload a single chunk.  It
        cannot reduce the footprint of columns that already exist.  This
        is where caller-built columns enter, so the float cloudlet
        columns are checked finite here, once.
        """
        stream = cls._view(arrays, name, seed, chunk_size)
        _check_finite_cloudlets(stream.cloudlets)
        return stream

    @classmethod
    def _view(
        cls,
        arrays: ScenarioArrays,
        name: str = "",
        seed: int | None = None,
        chunk_size: "int | None" = None,
    ) -> "ScenarioChunks":
        """:meth:`from_arrays` without the finiteness scan.

        For columns already checked: a spec's, whose every field was, and
        a scheduling context's, which a batch ``schedule`` call views as
        one chunk inside its timed decision, where an O(n) scan would add
        to the measured time.
        """
        return cls(
            name=name,
            seed=seed,
            chunk_size=arrays.num_cloudlets if chunk_size is None else chunk_size,
            num_cloudlets=arrays.num_cloudlets,
            cloudlets=MaterializedCloudlets(
                **{field: getattr(arrays, field) for field in _CLOUDLET_FIELDS}
            ),
            **{field: getattr(arrays, field) for field in _FLEET_FIELDS},
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "ScenarioChunks":
        """Chunked view over an already-materialised scenario.

        Shares the spec's columns (no copies), so this is for differential
        testing and convenience.
        """
        return cls._view(
            spec.arrays(), name=spec.name, seed=spec.seed, chunk_size=chunk_size
        )

    def to_arrays(self) -> ScenarioArrays:
        """Every cloudlet column over the resident fleet arrays, as one chunk.

        The inverse of :meth:`from_arrays`: a one-chunk stream returns that
        chunk itself (its columns are the stream's own, no copies); a longer
        one concatenates each cloudlet column once.  O(num_cloudlets)
        memory, but no per-cloudlet objects — the view the in-memory
        fallback schedules over.
        """
        chunks = [chunk for _, chunk in self]
        if len(chunks) == 1:
            return chunks[0]
        return self.chunk_arrays(
            **{
                name: np.concatenate([getattr(chunk, name) for chunk in chunks])
                for name in _CLOUDLET_FIELDS
            }
        )

    def to_spec(self) -> ScenarioSpec:
        """Materialise the full monolithic :class:`ScenarioSpec`.

        O(num_cloudlets) memory and one Python object per cloudlet — for
        consumers that need a spec (the DES engine, differential tests).
        """
        arrays = self.to_arrays()
        length, pes, file_size, output_size = (
            getattr(arrays, name) for name in _CLOUDLET_FIELDS
        )
        cloudlets = tuple(
            CloudletSpec(
                length=float(length[i]),
                pes=int(pes[i]),
                file_size=float(file_size[i]),
                output_size=float(output_size[i]),
            )
            for i in range(self.num_cloudlets)
        )
        vms = tuple(
            VmSpec(
                mips=float(self.vm_mips[i]),
                pes=int(self.vm_pes[i]),
                ram=float(self.vm_ram[i]),
                bw=float(self.vm_bw[i]),
                size=float(self.vm_size[i]),
            )
            for i in range(self.num_vms)
        )
        datacenters = tuple(
            DatacenterSpec(
                characteristics=DatacenterCharacteristics(
                    cost_per_mem=float(self.dc_cost_per_mem[d]),
                    cost_per_storage=float(self.dc_cost_per_storage[d]),
                    cost_per_bw=float(self.dc_cost_per_bw[d]),
                    cost_per_cpu=float(self.dc_cost_per_cpu[d]),
                )
            )
            for d in range(self.num_datacenters)
        )
        return ScenarioSpec(
            name=self.name,
            datacenters=datacenters,
            vms=vms,
            cloudlets=cloudlets,
            vm_datacenter=tuple(int(d) for d in self.vm_datacenter),
            seed=self.seed,
        )

    # -- identity -----------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 digest of the full numeric content, chunk-size independent.

        Cloudlet columns are folded through one streaming sub-hasher per
        field during a single pass, then a master hash covers every field's
        ``(name, dtype, digest-or-bytes)`` in sorted field order — so two
        streams describing the same workload at different chunk sizes agree,
        and any value change anywhere changes the digest.  (The scheme
        differs from :func:`repro.cache.scenario_digest`; the cache never
        compares the two because the engine string differs.)
        """
        sub = {name: hashlib.sha256() for name in _CLOUDLET_FIELDS}
        dtypes: dict[str, str] = {}
        for _, chunk in self:
            for name in _CLOUDLET_FIELDS:
                column = np.ascontiguousarray(getattr(chunk, name))
                dtypes[name] = str(column.dtype)
                sub[name].update(column.tobytes())
        h = hashlib.sha256()
        static = {name: getattr(self, name) for name in _FLEET_FIELDS}
        for name in sorted(set(_CLOUDLET_FIELDS) | set(static)):
            h.update(name.encode())
            if name in sub:
                h.update(dtypes[name].encode())
                h.update(sub[name].hexdigest().encode())
            else:
                column = np.ascontiguousarray(static[name])
                h.update(str(column.dtype).encode())
                h.update(column.tobytes())
        return h.hexdigest()

    def manifest_summary(self) -> dict[str, Any]:
        """Scenario summary for :func:`repro.obs.manifest.capture_manifest`."""
        return {
            "name": self.name,
            "num_vms": self.num_vms,
            "num_cloudlets": self.num_cloudlets,
            "num_datacenters": self.num_datacenters,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ShardPlan:
    """One shard's contiguous chunk range within a :class:`ScenarioChunks`.

    Shards never split a chunk: the executor's fold is chunk-at-a-time, so
    aligning shard boundaries to chunk boundaries makes a shard boundary
    semantically identical to a chunk boundary.  ``start``/``stop`` are the
    cloudlet offsets covered, precomputed so planners and carry logic never
    re-derive them.
    """

    index: int
    num_shards: int
    chunk_start: int
    chunk_stop: int
    start: int
    stop: int

    @property
    def num_chunks(self) -> int:
        return self.chunk_stop - self.chunk_start

    @property
    def num_cloudlets(self) -> int:
        return self.stop - self.start


def plan_shards(stream: ScenarioChunks, shards: int) -> tuple[ShardPlan, ...]:
    """Split a stream into ≤ ``shards`` contiguous, balanced chunk ranges.

    Chunk counts follow ``np.array_split`` semantics (earlier shards get
    the remainder), empty shards are dropped, and the ranges partition
    ``[0, num_chunks)`` exactly — so executing the plans in index order and
    merging reproduces the serial pass.
    """
    check_number("shards", shards, ge=1, integer=True)
    num_chunks = stream.num_chunks
    shards = min(shards, num_chunks)
    base, extra = divmod(num_chunks, shards)
    plans = []
    chunk_start = 0
    for index in range(shards):
        chunk_stop = chunk_start + base + (1 if index < extra else 0)
        plans.append(
            ShardPlan(
                index=index,
                num_shards=shards,
                chunk_start=chunk_start,
                chunk_stop=chunk_stop,
                start=stream.chunk_offset(chunk_start),
                stop=min(stream.chunk_offset(chunk_stop), stream.num_cloudlets),
            )
        )
        chunk_start = chunk_stop
    return tuple(plans)


def homogeneous_stream(
    num_vms: int,
    num_cloudlets: int,
    num_datacenters: int = 2,
    seed: int | None = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: str | None = None,
) -> ScenarioChunks:
    """Chunked form of :func:`~repro.workloads.homogeneous.homogeneous_scenario`.

    Same name, same seed, same columns bit-for-bit — only the cloudlet
    columns are produced lazily, so the paper's 10^6-cloudlet points fit
    in O(num_vms + chunk_size) memory.
    """
    check_scenario_sizes(num_vms, num_cloudlets, num_datacenters)
    vm = HOMOGENEOUS_VM
    cl = HOMOGENEOUS_CLOUDLET
    return ScenarioChunks(
        name=name or f"homogeneous-{num_vms}vms-{num_cloudlets}cl",
        seed=seed,
        chunk_size=chunk_size,
        num_cloudlets=num_cloudlets,
        cloudlets=ConstantCloudlets(
            length=cl.length, pes=cl.pes,
            file_size=cl.file_size, output_size=cl.output_size,
        ),
        vm_mips=np.full(num_vms, vm.mips, dtype=float),
        vm_pes=np.full(num_vms, vm.pes, dtype=np.int64),
        vm_ram=np.full(num_vms, vm.ram, dtype=float),
        vm_bw=np.full(num_vms, vm.bw, dtype=float),
        vm_size=np.full(num_vms, vm.size, dtype=float),
        vm_datacenter=np.arange(num_vms, dtype=np.int64) % num_datacenters,
        # Identical pricing everywhere, matching homogeneous_scenario.
        dc_cost_per_mem=np.full(num_datacenters, 0.05),
        dc_cost_per_storage=np.full(num_datacenters, 0.001),
        dc_cost_per_bw=np.full(num_datacenters, 0.0),
        dc_cost_per_cpu=np.full(num_datacenters, 3.0),
    )


def heterogeneous_stream(
    num_vms: int,
    num_cloudlets: int,
    num_datacenters: int = 4,
    seed: int | None = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: str | None = None,
) -> ScenarioChunks:
    """Chunked form of :func:`~repro.workloads.heterogeneous.heterogeneous_scenario`.

    VM and datacenter draws use the same ``(seed, label)`` streams as the
    monolithic generator; cloudlet lengths are drawn chunk by chunk from
    the ``hetero/cloudlets`` stream, which concatenates to the monolithic
    draw bit-for-bit (sequential generator consumption).
    """
    check_scenario_sizes(num_vms, num_cloudlets, num_datacenters)
    vm_rng = spawn_rng(seed, "hetero/vms")
    dc_rng = spawn_rng(seed, "hetero/datacenters")
    # Match the monolithic per-datacenter draw order exactly: mem, storage,
    # bw for datacenter 0, then datacenter 1, ...
    mem = np.empty(num_datacenters)
    storage = np.empty(num_datacenters)
    bw = np.empty(num_datacenters)
    for d in range(num_datacenters):
        mem[d] = dc_rng.uniform(*COST_PER_MEM_RANGE)
        storage[d] = dc_rng.uniform(*COST_PER_STORAGE_RANGE)
        bw[d] = dc_rng.uniform(*COST_PER_BW_RANGE)
    return ScenarioChunks(
        name=name or f"heterogeneous-{num_vms}vms-{num_cloudlets}cl",
        seed=seed,
        chunk_size=chunk_size,
        num_cloudlets=num_cloudlets,
        cloudlets=UniformLengthCloudlets(
            low=CLOUDLET_LENGTH_RANGE[0],
            high=CLOUDLET_LENGTH_RANGE[1],
            pes=1,
            file_size=CLOUDLET_FILE_SIZE,
            output_size=CLOUDLET_OUTPUT_SIZE,
        ),
        vm_mips=vm_rng.uniform(*VM_MIPS_RANGE, size=num_vms),
        vm_pes=np.ones(num_vms, dtype=np.int64),
        vm_ram=np.full(num_vms, VM_RAM),
        vm_bw=np.full(num_vms, VM_BW),
        vm_size=np.full(num_vms, VM_SIZE),
        vm_datacenter=np.arange(num_vms, dtype=np.int64) % num_datacenters,
        dc_cost_per_mem=mem,
        dc_cost_per_storage=storage,
        dc_cost_per_bw=bw,
        dc_cost_per_cpu=np.full(num_datacenters, COST_PER_CPU),
    )


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ScenarioChunks",
    "ShardPlan",
    "plan_shards",
    "ConstantCloudlets",
    "UniformLengthCloudlets",
    "MaterializedCloudlets",
    "homogeneous_stream",
    "heterogeneous_stream",
]
