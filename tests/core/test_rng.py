"""RNG discipline: determinism and stream independence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import spawn_rng


class TestSpawnRng:
    def test_same_seed_label_is_bit_identical(self):
        a = spawn_rng(42, "workload")
        b = spawn_rng(42, "workload")
        assert np.array_equal(a.random(100), b.random(100))

    def test_different_labels_are_independent(self):
        a = spawn_rng(42, "workload").random(100)
        b = spawn_rng(42, "aco").random(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spawn_rng(1, "x").random(50)
        b = spawn_rng(2, "x").random(50)
        assert not np.array_equal(a, b)

    def test_none_seed_allowed(self):
        rng = spawn_rng(None, "anything")
        assert 0.0 <= rng.random() < 1.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rng(-1, "x")

    def test_empty_label_is_valid(self):
        assert spawn_rng(7).random() == spawn_rng(7, "").random()

