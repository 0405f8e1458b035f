"""Unit tests for the JSONL exporter and the text renderer."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    read_telemetry_jsonl,
    render_manifest,
    render_telemetry,
    write_telemetry_jsonl,
)
from repro.obs.manifest import capture_manifest
from repro.obs.telemetry import SpanStat, TelemetrySnapshot


@pytest.fixture
def snapshot():
    return TelemetrySnapshot(
        spans={"run": SpanStat(1, 2.0), "run/eval": SpanStat(10, 1.5)},
        counters={"kernel.evaluations": 10},
        gauges={"load": 0.75},
    )


class TestJsonl:
    def test_round_trip_without_manifest(self, tmp_path, snapshot):
        path = write_telemetry_jsonl(tmp_path / "t.jsonl", snapshot)
        restored, manifest = read_telemetry_jsonl(path)
        assert manifest is None
        assert restored.counters == snapshot.counters
        assert restored.gauges == snapshot.gauges
        assert {p: (s.count, s.total_s) for p, s in restored.spans.items()} == {
            p: (s.count, s.total_s) for p, s in snapshot.spans.items()
        }

    def test_round_trip_with_manifest(self, tmp_path, snapshot):
        manifest = capture_manifest(seed=7, engine="sweep", experiment="fig6a")
        path = write_telemetry_jsonl(tmp_path / "t.jsonl", snapshot, manifest)
        restored_snap, restored_manifest = read_telemetry_jsonl(path)
        assert restored_manifest == manifest
        assert restored_snap.counters == snapshot.counters

    def test_one_json_object_per_line(self, tmp_path, snapshot):
        path = write_telemetry_jsonl(tmp_path / "t.jsonl", snapshot)
        lines = path.read_text().splitlines()
        # 2 spans + 1 counter + 1 gauge
        assert len(lines) == 4
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["span", "span", "counter", "gauge"]

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "histogram", "name": "x"}) + "\n")
        with pytest.raises(ValueError, match="histogram"):
            read_telemetry_jsonl(path)

    def test_blank_lines_tolerated(self, tmp_path, snapshot):
        path = write_telemetry_jsonl(tmp_path / "t.jsonl", snapshot)
        path.write_text(path.read_text() + "\n\n")
        restored, _ = read_telemetry_jsonl(path)
        assert restored.counters == snapshot.counters

    def test_creates_parent_directories(self, tmp_path, snapshot):
        path = write_telemetry_jsonl(tmp_path / "deep" / "dir" / "t.jsonl", snapshot)
        assert path.exists()


class TestRender:
    def test_span_rows_indented_by_depth(self, snapshot):
        text = render_telemetry(snapshot)
        lines = text.splitlines()
        assert any(line.startswith("run ") for line in lines)
        assert any(line.startswith("  eval") for line in lines)
        assert "kernel.evaluations" in text
        assert "load" in text

    def test_title_underlined(self, snapshot):
        text = render_telemetry(snapshot, title="fig6a telemetry")
        assert text.splitlines()[0] == "fig6a telemetry"
        assert text.splitlines()[1] == "=" * len("fig6a telemetry")

    def test_empty_snapshot(self):
        assert "(no telemetry recorded)" in render_telemetry(TelemetrySnapshot())

    def test_render_manifest_includes_environment(self):
        manifest = capture_manifest(seed=9, engine="des", experiment="fig4a")
        text = render_manifest(manifest)
        assert "seed: 9" in text
        assert "engine: des" in text
        assert "package_version" in text
        assert '"experiment": "fig4a"' in text
        # deterministic manifests must not render a timestamp line
        assert "captured_at" not in text
