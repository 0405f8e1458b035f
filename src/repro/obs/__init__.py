"""Observability layer: structured telemetry, run manifests, exporters.

Three pieces, documented in depth in ``docs/observability.md``:

* :mod:`repro.obs.telemetry` — hierarchical span timers plus typed
  counters/gauges behind a single global switch (:data:`TELEMETRY`).
  Near-zero cost while disabled, so instrumentation stays compiled into
  the hot paths permanently.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (seeds, scenario, scheduler config, package + host info) attached to
  every simulation result and sweep artifact.
* :mod:`repro.obs.export` — the JSONL exporter and the plain-text
  renderer behind ``python -m repro.experiments report``.

Example::

    >>> from repro import obs
    >>> obs.reset()
    >>> with obs.enabled():
    ...     with obs.span("demo.phase"):
    ...         obs.count("demo.items", 5)
    >>> snap = obs.snapshot()
    >>> snap.spans["demo.phase"].count, snap.counters["demo.items"]
    (1, 5)
"""

from repro.obs.export import (
    read_telemetry_jsonl,
    render_manifest,
    render_telemetry,
    write_telemetry_jsonl,
)
from repro.obs.manifest import RunManifest, capture_manifest
from repro.obs.telemetry import (
    TELEMETRY,
    SpanStat,
    Telemetry,
    TelemetrySnapshot,
    count,
    disable,
    enable,
    enabled,
    gauge,
    is_enabled,
    reset,
    snapshot,
    span,
)

__all__ = [
    "TELEMETRY",
    "SpanStat",
    "Telemetry",
    "TelemetrySnapshot",
    "RunManifest",
    "capture_manifest",
    "span",
    "count",
    "gauge",
    "enable",
    "disable",
    "is_enabled",
    "enabled",
    "snapshot",
    "reset",
    "write_telemetry_jsonl",
    "read_telemetry_jsonl",
    "render_telemetry",
    "render_manifest",
]
