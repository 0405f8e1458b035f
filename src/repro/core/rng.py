"""Seeded random-number discipline.

Every stochastic component in the package (workload generators, ACO ants,
RBS walk lengths, ...) draws from a :class:`numpy.random.Generator` obtained
through :func:`spawn_rng`.  Streams are derived from a root
``SeedSequence`` with a stable text label, so

* two runs with the same ``(seed, label)`` are bit-identical, and
* adding a new consumer never perturbs existing streams (unlike sharing one
  generator and interleaving draws).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.checks import check_number


def _label_key(label: str) -> int:
    """Map a text label to a stable 32-bit stream key."""
    return zlib.crc32(label.encode("utf-8"))


def spawn_rng(seed: int | None, label: str = "") -> np.random.Generator:
    """Create a generator for ``label`` derived from ``seed``.

    ``seed=None`` produces OS entropy (non-reproducible) — allowed, but the
    experiment harness always passes explicit seeds.

    >>> a, b = spawn_rng(42, "workload"), spawn_rng(42, "workload")
    >>> bool((a.random(4) == b.random(4)).all())
    True
    >>> bool(spawn_rng(42, "aco").random() == spawn_rng(42, "workload").random())
    False
    """
    if seed is None:
        return np.random.default_rng()
    check_number("seed", seed, ge=0, integer=True)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_label_key(label),)))


__all__ = ["spawn_rng"]
