"""Profiling helpers."""

from __future__ import annotations

import pytest

from repro.experiments.profiling import (
    ProfileReport,
    profile_callable,
    profile_scheduling,
)
from repro.schedulers import RoundRobinScheduler
from repro.workloads.heterogeneous import heterogeneous_scenario


class TestProfileCallable:
    def test_captures_result_and_stats(self):
        report = profile_callable(lambda: sum(range(1000)))
        assert report.result == 499500
        assert report.total_calls > 0
        assert "function calls" in report.text
        assert str(report) == report.text

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            profile_callable(lambda: (_ for _ in ()).throw(RuntimeError("boom")))

    def test_top_validated(self):
        with pytest.raises(ValueError):
            profile_callable(lambda: 1, top=0)


class TestDomainWrappers:
    def test_profile_scheduling(self):
        scenario = heterogeneous_scenario(5, 20, seed=0)
        report = profile_scheduling(RoundRobinScheduler(), scenario)
        assert isinstance(report, ProfileReport)
        assert report.result.assignment.shape == (20,)

