"""The gauntlet driver itself: deterministic reruns and blocking gates.

Runs ``tools/gauntlet.py``'s harness in-process at a tiny scale — the
full smoke-scale record lives in ``BENCH_gauntlet.json`` and is diffed
by the ``gauntlet-smoke`` CI job; here we pin the driver's contracts:

* two runs of the same config are **bit-identical** (every decision
  hash and makespan equal — the acceptance criterion for trusting a
  hash drift as a real regression, not harness noise);
* :func:`diff_records` passes on identity and fails loudly on decision
  drift, missing/new rows, throughput collapse, and RSS growth.
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(_TOOLS) not in sys.path:
    sys.path.insert(0, str(_TOOLS))

from gauntlet import (  # noqa: E402
    DEFAULT_CONFIG,
    GAUNTLET_KWARGS,
    diff_records,
    run_gauntlet,
    summary_lines,
)
from repro.schedulers import SCHEDULER_REGISTRY  # noqa: E402
from repro.schedulers.streaming import STREAMING_SCHEDULERS  # noqa: E402

TINY_CONFIG = {
    "homog": {"num_vms": 4, "num_cloudlets": 12, "seed": 11},
    "hetero": {"num_vms": 4, "num_cloudlets": 12, "seed": 11},
    "online": {"num_vms": 4, "num_cloudlets": 10, "seed": 5, "rate": 2.0},
    "faulty": {"num_vms": 4, "num_cloudlets": 12, "seed": 23},
    "stream": {
        "num_vms": 4,
        "num_cloudlets": 2000,
        "seed": 7,
        "chunk_size": 512,
        "rounds": 1,
    },
}


@pytest.fixture(scope="module")
def record():
    return run_gauntlet(copy.deepcopy(TINY_CONFIG))


def test_every_registry_scheduler_covered(record):
    per_family = {}
    for row in record["rows"]:
        per_family.setdefault(row["family"], set()).add(row["scheduler"])
    for family in ("homog", "hetero", "online", "faulty"):
        assert per_family[family] == set(SCHEDULER_REGISTRY)
    assert per_family["stream"] == set(STREAMING_SCHEDULERS)
    assert set(GAUNTLET_KWARGS) <= set(SCHEDULER_REGISTRY)


def test_rerun_is_bit_identical(record):
    again = run_gauntlet(copy.deepcopy(TINY_CONFIG))
    stable = [
        {k: v for k, v in row.items() if k in ("family", "scheduler", "decision_sha256", "makespan")}
        for row in record["rows"]
    ]
    stable_again = [
        {k: v for k, v in row.items() if k in ("family", "scheduler", "decision_sha256", "makespan")}
        for row in again["rows"]
    ]
    assert stable == stable_again
    # Decision/metric gates must pass on identity; timing gates are
    # meaningless at this tiny scale, so open them wide.
    assert not diff_records(record, again, throughput_tolerance=1.0, rss_tolerance=10.0)


def test_record_carries_cpu_count_and_check_ignores_it(record):
    assert record["cpu_count"] == os.cpu_count()
    # Records written before the key existed still diff clean.
    unstamped = {k: v for k, v in record.items() if k != "cpu_count"}
    assert not diff_records(unstamped, record)
    assert not diff_records(record, unstamped)


def test_diff_fails_on_decision_drift(record):
    tampered = copy.deepcopy(record)
    tampered["rows"][0]["decision_sha256"] = "0" * 64
    failures = diff_records(tampered, record)
    assert any("decision hash drifted" in f for f in failures)


def test_diff_fails_on_missing_and_new_rows(record):
    shrunk = copy.deepcopy(record)
    dropped = shrunk["rows"].pop(0)
    failures = diff_records(record, shrunk)
    assert any(
        "row missing" in f and dropped["scheduler"] in f for f in failures
    )
    failures = diff_records(shrunk, record)
    assert any("not in the committed record" in f for f in failures)


def test_diff_fails_on_throughput_and_rss_regressions(record):
    slow = copy.deepcopy(record)
    for row in slow["rows"]:
        if row["family"] == "stream" and row["scheduler"] != "basetest":
            row["relative_throughput"] *= 0.5
    failures = diff_records(record, slow)
    assert any("relative throughput" in f for f in failures)

    bloated = copy.deepcopy(record)
    bloated["peak_rss_mb"] = record["peak_rss_mb"] * 1.5
    failures = diff_records(record, bloated)
    assert any("peak RSS" in f for f in failures)


def test_summary_reads_decisions_apart_from_resources(record):
    n = len(record["rows"])
    slow = copy.deepcopy(record)
    for row in slow["rows"]:
        if row["family"] == "stream" and row["scheduler"] != "basetest":
            row["relative_throughput"] *= 0.5
    decisions, resources = summary_lines(record, slow)
    assert decisions == (
        f"decisions: {n}/{n} rows match the committed hash and makespan — OK"
    )
    assert resources.startswith("throughput/RSS: 1/4 timed rows")
    assert resources.endswith("FAIL")

    tampered = copy.deepcopy(record)
    tampered["rows"][0]["decision_sha256"] = "0" * 64
    decisions, resources = summary_lines(
        tampered, record, throughput_tolerance=1.0, rss_tolerance=10.0
    )
    assert decisions.startswith(f"decisions: {n - 1}/{n} rows")
    assert decisions.endswith("FAIL")
    assert resources.endswith("OK")


def test_diff_fails_on_version_drift(record):
    old = copy.deepcopy(record)
    old["version"] = 0
    failures = diff_records(old, record)
    assert failures and "re-record" in failures[0]
