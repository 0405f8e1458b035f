"""Summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.stats import SummaryStats, confidence_interval, summarize


class TestStats:
    def test_single_sample(self):
        stats = summarize([5.0])
        assert stats == SummaryStats(
            n=1, mean=5.0, std=0.0, minimum=5.0, maximum=5.0, ci_halfwidth=0.0
        )
        assert str(stats) == "5"

    def test_summary_fields(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.n == 3
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.ci_low < 2.0 < stats.ci_high
        assert "±" in str(stats)

    def test_ci_zero_for_constant_samples(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == 0.0

    def test_ci_matches_t_distribution(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        from scipy import stats as sps

        sem = np.std(samples, ddof=1) / np.sqrt(4)
        expected = sps.t.ppf(0.975, df=3) * sem
        assert confidence_interval(samples) == pytest.approx(expected)

    def test_wider_confidence_wider_interval(self):
        samples = [1.0, 5.0, 2.0, 8.0]
        assert confidence_interval(samples, 0.99) > confidence_interval(samples, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            confidence_interval(np.zeros((2, 2)))
