"""Content-addressed on-disk result store for paper-scale sweeps.

A :class:`ResultCache` maps a stable SHA-256 fingerprint — derived from
the :class:`~repro.obs.manifest.RunManifest` of a (scenario, scheduler,
seed, engine) cell via :meth:`RunManifest.fingerprint` — to a persisted
:class:`~repro.cloud.simulation.SimulationResult`.  Regenerating a
figure, extending a sweep with new VM counts / seeds, or adding a
scheduler to an existing grid then only computes the missing cells; the
rest replay from disk bit-identically (wall-clock ``scheduling_time``
replays as the *cold* run's measured value, so a warm sweep's records
are byte-equal to the cold sweep's).

Entry layout (one directory per key, fanned out by the first two hex
characters to keep directories small)::

    <root>/objects/<k0k1>/<key>/
        meta.json     scalars, filtered info, the key manifest
        arrays.npz    per-cloudlet arrays (compressed)
    <root>/tmp/       staging area for in-flight writes

Durability contract:

* **Atomic publication** — entries are staged under ``tmp/`` and
  ``os.rename``\\ d into place, so a reader can never observe a
  half-written entry and concurrent writers of the same key cannot
  interleave (the loser of the rename race discards its staging dir;
  both wrote identical content by construction).
* **Corruption tolerance** — any unreadable, truncated or
  wrong-version entry is treated as a miss; callers recompute and the
  subsequent :meth:`ResultCache.put` replaces the bad entry.  Reads
  never raise for a bad entry.
* **Versioned format** — every entry records ``entry_format`` and the
  ``package_version`` that wrote it.  The package version is part of
  the fingerprint, so bumping :data:`repro._version.__version__`
  orphans old entries (they can never be hit again); reads
  double-check both fields and :meth:`ResultCache.prune` collects the
  orphans.

Telemetry: ``get``/``put`` maintain per-instance totals and emit the
global counters ``cache.hits`` / ``cache.misses`` / ``cache.bytes_read``
/ ``cache.bytes_written`` (rendered by ``python -m repro.experiments
report``; see ``docs/observability.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro._version import __version__
from repro.obs.manifest import RunManifest, capture_manifest
from repro.obs.telemetry import TELEMETRY as _TEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.fast import StreamingResult
    from repro.cloud.simulation import SimulationResult
    from repro.workloads.spec import ScenarioSpec

__all__ = [
    "ENTRY_FORMAT_VERSION",
    "CacheStats",
    "PruneReport",
    "ResultCache",
    "scenario_digest",
    "cache_key_manifest",
]

#: Bumped whenever the on-disk entry layout changes; mismatched entries
#: read as misses and are collected by :meth:`ResultCache.prune`.
ENTRY_FORMAT_VERSION = 1

_META_NAME = "meta.json"
_ARRAYS_NAME = "arrays.npz"
#: SimulationResult array fields persisted in ``arrays.npz``.
_ARRAY_FIELDS = (
    "assignment",
    "submission_times",
    "start_times",
    "finish_times",
    "exec_times",
    "costs",
)
#: StreamingResult array fields (per-VM aggregates, O(num_vms)) persisted
#: for entries with ``result_kind == "stream"``.
_STREAM_ARRAY_FIELDS = (
    "vm_finish_times",
    "vm_costs",
)
#: process-local uniquifier for staging directory names.
_STAGE_COUNTER = itertools.count()


def scenario_digest(scenario: "ScenarioSpec") -> str:
    """SHA-256 hex digest of a scenario's full numeric content.

    The manifest's scenario summary records only name, sizes and seed;
    hashing the :class:`~repro.workloads.spec.ScenarioArrays` columns as
    well makes the cache key sensitive to the *actual* workload, so a
    hand-built scenario that happens to share a name with a generated
    one can never collide.

    Memoised per spec instance (specs are immutable), so probing every
    scheduler of a sweep cell hashes the columns once, not once per
    scheduler.
    """
    cached = getattr(scenario, "_digest_cache", None)
    if cached is not None:
        return cached
    if hasattr(scenario, "digest"):
        # Chunked scenarios (ScenarioChunks) hash their own columns one
        # chunk at a time — never materialising the workload.  Their
        # digest scheme differs from the block below by construction
        # (per-column sub-hashers), so a spec and a stream of the same
        # workload key differently; the engine string already separates
        # their cache entries anyway.
        digest = scenario.digest()
    else:
        arrays = scenario.arrays()
        h = hashlib.sha256()
        for name in sorted(f for f in vars(arrays) if not f.startswith("_")):
            column = np.ascontiguousarray(getattr(arrays, name))
            h.update(name.encode())
            h.update(str(column.dtype).encode())
            h.update(column.tobytes())
        digest = h.hexdigest()
    try:
        object.__setattr__(scenario, "_digest_cache", digest)
    except AttributeError:  # slotted/exotic spec: recompute next time
        pass
    return digest


def cache_key_manifest(
    scenario: "ScenarioSpec",
    scheduler: Any,
    seed: int | None,
    engine: str,
    **extra: Any,
) -> RunManifest:
    """The manifest whose fingerprint addresses one cache entry.

    Must be built from a *fresh* scheduler (before it runs) so the
    recorded constructor parameters are the pre-run configuration.

    Chunked scenarios fold their chunking geometry (``chunk_size``,
    ``num_chunks``) into the fingerprint: streaming metrics are
    chunk-size-invariant by contract, but the stored entry records the
    geometry it was produced under, and re-keying on it keeps the
    invariance property *testable* rather than silently assumed.
    """
    if hasattr(scenario, "chunk_size") and hasattr(scenario, "num_chunks"):
        extra.setdefault("chunk_size", int(scenario.chunk_size))
        extra.setdefault("num_chunks", int(scenario.num_chunks))
    return capture_manifest(
        scenario=scenario,
        scheduler=scheduler,
        seed=seed,
        engine=engine,
        scenario_digest=scenario_digest(scenario),
        **extra,
    )


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time inventory of a cache directory."""

    entries: int
    total_bytes: int
    #: package_version -> entry count (foreign versions are prunable).
    by_version: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_version": dict(sorted(self.by_version.items())),
        }


@dataclass(frozen=True)
class PruneReport:
    """Outcome of one :meth:`ResultCache.prune` pass."""

    removed: int
    freed_bytes: int


class _DamagedEntry(Exception):
    """An entry that reads as a miss, verifies as a problem and is pruned."""


class ResultCache:
    """Manifest-keyed persistent store of :class:`SimulationResult`\\ s.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.  Safe to share
        between concurrent processes (see the module docstring's
        durability contract).

    Instance counters (``hits``, ``misses``, ``bytes_read``,
    ``bytes_written``) accumulate over the instance's lifetime and are
    mirrored into the global telemetry registry when it is enabled.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @classmethod
    def coerce(cls, cache: "ResultCache | str | os.PathLike | None") -> "ResultCache | None":
        """Accept a cache instance, a directory path, or ``None``."""
        if cache is None or isinstance(cache, cls):
            return cache
        return cls(cache)

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        scenario: "ScenarioSpec",
        scheduler: Any,
        seed: int | None,
        engine: str,
        **extra: Any,
    ) -> str:
        """Fingerprint addressing the (scenario, scheduler, seed, engine) cell."""
        return cache_key_manifest(scenario, scheduler, seed, engine, **extra).fingerprint()

    # -- paths --------------------------------------------------------------

    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def entry_dir(self, key: str) -> Path:
        """On-disk directory an entry for ``key`` lives in (may not exist)."""
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return self._objects_dir / key[:2] / key

    def _entry_bytes(self, entry: Path) -> int:
        return sum(f.stat().st_size for f in entry.iterdir() if f.is_file())

    def iter_keys(self) -> Iterator[str]:
        """All entry keys currently on disk (sorted for determinism)."""
        if not self._objects_dir.is_dir():
            return
        for shard in sorted(self._objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir():
                    yield entry.name

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> "SimulationResult | StreamingResult | None":
        """Load the entry for ``key``; ``None`` on miss *or any damage*.

        Everything :meth:`verify` reports counts as a miss — a truncated
        ``arrays.npz``, an unparsable or incomplete ``meta.json``, a
        missing member, a format/package-version mismatch, a mis-filed or
        tampered entry — so the caller recomputes and :meth:`put` replaces
        the bad entry.

        Entries written from a :class:`~repro.cloud.fast.StreamingResult`
        (``result_kind == "stream"``) load back as one; everything else
        loads as a :class:`~repro.cloud.simulation.SimulationResult`.
        """
        try:
            result, nbytes = self._load(key)
        except _DamagedEntry:
            self.misses += 1
            _TEL.count("cache.misses")
            return None
        self.hits += 1
        self.bytes_read += nbytes
        _TEL.count("cache.hits")
        _TEL.count("cache.bytes_read", nbytes)
        return result

    def _load(self, key: str) -> "tuple[SimulationResult | StreamingResult, int]":
        """The one entry reader: ``(result, bytes on disk)``, or
        :class:`_DamagedEntry` naming the first problem found.

        :meth:`get` (a miss), :meth:`verify` (a problem) and :meth:`prune`
        (a removal) all decide through here, so they agree on every entry.
        """
        from repro.cloud.fast import StreamingResult
        from repro.cloud.simulation import SimulationResult

        entry = self.entry_dir(key)
        try:
            meta = json.loads((entry / _META_NAME).read_text())
            if not isinstance(meta, dict):
                raise ValueError(f"{_META_NAME} is not an object")
        except (OSError, ValueError) as exc:
            raise _DamagedEntry(f"unreadable {_META_NAME}") from exc
        for name, expected in (
            ("entry_format", ENTRY_FORMAT_VERSION),
            ("package_version", __version__),
            ("key", key),
        ):
            if meta.get(name) != expected:
                raise _DamagedEntry(
                    f"recorded {name} {meta.get(name)!r} mismatches {expected!r}"
                )
        manifest_dict = meta.get("manifest")
        if manifest_dict is not None:
            try:
                derived = RunManifest.from_dict(manifest_dict).fingerprint()
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise _DamagedEntry("unreadable manifest") from exc
            if derived != key:
                raise _DamagedEntry(
                    f"manifest fingerprints to {derived[:12]}… "
                    "(entry was tampered with or mis-filed)"
                )
        kind = meta.get("result_kind", "memory")
        fields = _STREAM_ARRAY_FIELDS if kind == "stream" else _ARRAY_FIELDS
        try:
            with np.load(entry / _ARRAYS_NAME) as npz:
                missing = [name for name in fields if name not in npz.files]
                if missing:
                    raise _DamagedEntry(f"arrays missing {missing}")
                arrays = {name: npz[name] for name in fields}
            nbytes = self._entry_bytes(entry)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise _DamagedEntry(f"unreadable {_ARRAYS_NAME}") from exc
        shape = arrays[fields[0]].shape
        if len(shape) != 1 or any(arrays[name].shape != shape for name in fields):
            raise _DamagedEntry("misaligned arrays")
        try:
            common = dict(
                scenario_name=meta["scenario_name"],
                scheduler_name=meta["scheduler_name"],
                scheduling_time=meta["scheduling_time"],
                makespan=meta["makespan"],
                time_imbalance=meta["time_imbalance"],
                total_cost=meta["total_cost"],
                events_processed=meta["events_processed"],
                info=dict(meta["info"]),
            )
            if kind == "stream":
                result = StreamingResult(
                    num_cloudlets=meta["num_cloudlets"],
                    chunk_size=meta["chunk_size"],
                    num_chunks=meta["num_chunks"],
                    peak_rss_bytes=meta.get("peak_rss_bytes", 0),
                    **common,
                    **arrays,
                )
            else:
                result = SimulationResult(**common, **arrays)
        except KeyError as exc:
            raise _DamagedEntry(f"{_META_NAME} lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise _DamagedEntry(f"malformed {_META_NAME}") from exc
        return result, nbytes

    # -- write --------------------------------------------------------------

    def put(
        self,
        key: str,
        result: "SimulationResult | StreamingResult",
        manifest: RunManifest | None = None,
    ) -> bool:
        """Persist ``result`` under ``key``; returns False if a racing
        writer published the (identical) entry first.

        ``manifest`` should be the :func:`cache_key_manifest` the key was
        derived from; it is stored so ``cache verify`` can re-derive and
        check the fingerprint.  Only JSON-serialisable ``info`` values
        survive the round trip (same rule as ``SimulationResult.save``).

        :class:`~repro.cloud.fast.StreamingResult` inputs are detected by
        their per-VM aggregate arrays and stored as ``result_kind ==
        "stream"`` entries (a few KB — no per-cloudlet arrays exist to
        persist).
        """
        is_stream = hasattr(result, "vm_finish_times")
        fields = _STREAM_ARRAY_FIELDS if is_stream else _ARRAY_FIELDS
        entry = self.entry_dir(key)
        stage = self.root / "tmp" / f"{key}.{os.getpid()}.{next(_STAGE_COUNTER)}"
        stage.mkdir(parents=True, exist_ok=True)
        try:
            info: dict[str, Any] = {}
            for name, value in result.info.items():
                try:
                    json.dumps(value)
                except (TypeError, ValueError):
                    continue
                info[name] = value
            meta = {
                "entry_format": ENTRY_FORMAT_VERSION,
                "key": key,
                "package_version": __version__,
                "result_kind": "stream" if is_stream else "memory",
                "scenario_name": result.scenario_name,
                "scheduler_name": result.scheduler_name,
                "scheduling_time": float(result.scheduling_time),
                "makespan": float(result.makespan),
                "time_imbalance": float(result.time_imbalance),
                "total_cost": float(result.total_cost),
                "events_processed": int(result.events_processed),
                "info": info,
                "manifest": manifest.to_dict() if manifest is not None else None,
            }
            if is_stream:
                meta["num_cloudlets"] = int(result.num_cloudlets)
                meta["chunk_size"] = int(result.chunk_size)
                meta["num_chunks"] = int(result.num_chunks)
                meta["peak_rss_bytes"] = int(result.peak_rss_bytes)
            (stage / _META_NAME).write_text(json.dumps(meta, sort_keys=True))
            np.savez_compressed(
                stage / _ARRAYS_NAME,
                **{name: getattr(result, name) for name in fields},
            )
            nbytes = self._entry_bytes(stage)
            entry.parent.mkdir(parents=True, exist_ok=True)
            displaced: Path | None = None
            if entry.exists():
                # Replacing a (possibly corrupt) entry: move it aside so the
                # key is only ever bound to a complete directory.
                displaced = stage.with_name(stage.name + ".old")
                try:
                    os.rename(entry, displaced)
                except OSError:
                    displaced = None
            try:
                os.rename(stage, entry)
            except OSError:
                # Lost the publication race; the winner wrote identical
                # content (the key is content-addressed), so drop ours.
                return False
            finally:
                if displaced is not None:
                    shutil.rmtree(displaced, ignore_errors=True)
            self.bytes_written += nbytes
            _TEL.count("cache.bytes_written", nbytes)
            return True
        finally:
            shutil.rmtree(stage, ignore_errors=True)

    # -- maintenance --------------------------------------------------------

    def stats(self) -> CacheStats:
        """Inventory the cache: entry count, bytes, per-version breakdown."""
        entries = 0
        total = 0
        by_version: dict[str, int] = {}
        for key in self.iter_keys():
            entry = self.entry_dir(key)
            entries += 1
            total += self._entry_bytes(entry)
            version = "(unreadable)"
            try:
                version = json.loads((entry / _META_NAME).read_text()).get(
                    "package_version", "(unknown)"
                )
            except (OSError, ValueError, json.JSONDecodeError):
                pass
            by_version[version] = by_version.get(version, 0) + 1
        return CacheStats(entries=entries, total_bytes=total, by_version=by_version)

    def verify(self) -> list[str]:
        """Integrity problems, one ``"<key>: <reason>"`` per damaged entry
        (empty = clean).

        An entry is damaged exactly when :meth:`get` would miss it and
        :meth:`prune` would remove it: its files must parse and load, its
        format and package version must be current, its recorded key
        must match its directory name and — when the entry stored its key
        manifest — the manifest must still fingerprint to the key.
        """
        problems: list[str] = []
        for key in self.iter_keys():
            try:
                self._load(key)
            except _DamagedEntry as exc:
                problems.append(f"{key}: {exc}")
        return problems

    def prune(self, max_bytes: int | None = None) -> PruneReport:
        """Collect garbage: every entry :meth:`verify` reports (damaged,
        mis-filed or foreign-version), and — when ``max_bytes`` is given —
        the least-recently-modified entries until the cache fits the
        budget.

        Foreign-version entries are unreachable by construction (the
        package version is part of the fingerprint), so removing them is
        always safe.
        """
        removed = 0
        freed = 0

        def drop(key: str) -> None:
            nonlocal removed, freed
            entry = self.entry_dir(key)
            try:
                freed += self._entry_bytes(entry)
            except OSError:
                pass
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1

        survivors: list[tuple[float, int, str]] = []  # (mtime, bytes, key)
        for key in list(self.iter_keys()):
            try:
                _, nbytes = self._load(key)
            except _DamagedEntry:
                drop(key)
                continue
            survivors.append((self.entry_dir(key).stat().st_mtime, nbytes, key))

        if max_bytes is not None:
            total = sum(nbytes for _, nbytes, _ in survivors)
            for _, nbytes, key in sorted(survivors):
                if total <= max_bytes:
                    break
                drop(key)
                total -= nbytes

        # Sweep any stale staging dirs left behind by killed writers.
        tmp = self.root / "tmp"
        if tmp.is_dir():
            for leftover in tmp.iterdir():
                shutil.rmtree(leftover, ignore_errors=True)
        return PruneReport(removed=removed, freed_bytes=freed)
