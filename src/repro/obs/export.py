"""Telemetry exporters: a JSONL writer and reader, and a text renderer.

JSONL is the artifact format: one JSON object per line with a
``"kind"`` discriminator (``manifest`` / ``span`` / ``counter`` /
``gauge``), so files stream, concatenate and grep cleanly.
:func:`render_telemetry`
produces the human-readable per-phase timing table used by the
``python -m repro.experiments report`` subcommand and by
:func:`repro.experiments.profiling.profile_callable`.

Example::

    >>> from repro.obs.export import render_telemetry
    >>> from repro.obs.telemetry import SpanStat, TelemetrySnapshot
    >>> snap = TelemetrySnapshot(
    ...     spans={"run": SpanStat(1, 2.0), "run/eval": SpanStat(10, 1.5)},
    ...     counters={"kernel.evaluations": 10},
    ... )
    >>> print(render_telemetry(snap))  # doctest: +ELLIPSIS
    span                                        calls      total_s      mean_ms
    ------------------------------------------------------------------------
    run                                             1     2.000000     2000.000
      eval                                         10     1.500000      150.000
    <BLANKLINE>
    counter                                            value
    --------------------------------------------------------
    kernel.evaluations                                    10
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.manifest import RunManifest
from repro.obs.telemetry import SpanStat, TelemetrySnapshot

__all__ = [
    "write_telemetry_jsonl",
    "read_telemetry_jsonl",
    "render_telemetry",
    "render_manifest",
]


def write_telemetry_jsonl(
    path: str | Path,
    snapshot: TelemetrySnapshot,
    manifest: RunManifest | None = None,
) -> Path:
    """Write a snapshot (and optional manifest) as one JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    if manifest is not None:
        lines.append(json.dumps({"kind": "manifest", **manifest.to_dict()}))
    for name, stat in sorted(snapshot.spans.items()):
        lines.append(
            json.dumps(
                {
                    "kind": "span",
                    "name": name,
                    "count": stat.count,
                    "total_s": stat.total_s,
                }
            )
        )
    for name, value in sorted(snapshot.counters.items()):
        lines.append(json.dumps({"kind": "counter", "name": name, "value": value}))
    for name, value in sorted(snapshot.gauges.items()):
        lines.append(json.dumps({"kind": "gauge", "name": name, "value": value}))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_telemetry_jsonl(
    path: str | Path,
) -> tuple[TelemetrySnapshot, RunManifest | None]:
    """Read a file written by :func:`write_telemetry_jsonl`."""
    spans: dict[str, SpanStat] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    manifest: RunManifest | None = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "manifest":
            manifest = RunManifest.from_dict(record)
        elif kind == "span":
            spans[record["name"]] = SpanStat(
                int(record["count"]), float(record["total_s"])
            )
        elif kind == "counter":
            counters[record["name"]] = int(record["value"])
        elif kind == "gauge":
            gauges[record["name"]] = float(record["value"])
        else:
            raise ValueError(f"unknown telemetry record kind: {kind!r}")
    return TelemetrySnapshot(spans, counters, gauges), manifest


def _indented_span_rows(spans: dict[str, SpanStat]) -> Iterable[tuple[str, SpanStat]]:
    """Span rows sorted by path, labels indented by hierarchy depth."""
    for path in sorted(spans):
        depth = path.count("/")
        label = path.rsplit("/", 1)[-1] if depth else path
        yield "  " * depth + label, spans[path]


def render_telemetry(snapshot: TelemetrySnapshot, title: str | None = None) -> str:
    """Per-phase timing table plus counter/gauge summary, as plain text."""
    lines: list[str] = []
    if title:
        lines += [title, "=" * len(title), ""]
    if snapshot.is_empty:
        lines.append("(no telemetry recorded)")
        return "\n".join(lines)
    if snapshot.spans:
        lines.append(f"{'span':<40} {'calls':>8} {'total_s':>12} {'mean_ms':>12}")
        lines.append("-" * 72)
        for label, stat in _indented_span_rows(snapshot.spans):
            lines.append(
                f"{label:<40} {stat.count:>8} {stat.total_s:>12.6f} "
                f"{stat.mean_s * 1e3:>12.3f}"
            )
    if snapshot.counters:
        if snapshot.spans:
            lines.append("")
        lines.append(f"{'counter':<46} {'value':>9}")
        lines.append("-" * 56)
        for name, value in sorted(snapshot.counters.items()):
            lines.append(f"{name:<46} {value:>9}")
    if snapshot.gauges:
        lines.append("")
        lines.append(f"{'gauge':<46} {'value':>9}")
        lines.append("-" * 56)
        for name, value in sorted(snapshot.gauges.items()):
            lines.append(f"{name:<46} {value:>9.4g}")
    return "\n".join(lines)


def render_manifest(manifest: RunManifest) -> str:
    """Compact key/value rendering of a manifest for report output."""
    lines = ["manifest", "-" * 8]
    data = manifest.to_dict()
    for key in (
        "package_version",
        "python_version",
        "numpy_version",
        "platform",
        "hostname",
        "seed",
        "engine",
        "captured_at",
    ):
        value = data.get(key)
        if value is not None:
            lines.append(f"  {key}: {value}")
    for key in ("scenario", "scheduler", "extra"):
        value = data.get(key)
        if value:
            lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)
