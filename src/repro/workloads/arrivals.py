"""Cloudlet arrival processes.

The paper submits every cloudlet at t=0 (batch mode), but motivates the
schedulers by their ability to "adapt to changes along with defined
demand".  These processes generate per-cloudlet arrival times so the online
extension (``repro.cloud.online``) can exercise exactly that: steady
Poisson streams, bursty on/off load and day/night cycles.

All processes are deterministic given ``(rng, n)`` and return a
non-decreasing float array of length ``n``.
"""

from __future__ import annotations

import abc

import numpy as np


class ArrivalProcess(abc.ABC):
    """Generates arrival times for a batch of cloudlets."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Return ``n`` non-decreasing arrival times starting at >= 0."""

    def _validate_n(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")


class BatchArrivals(ArrivalProcess):
    """Everything arrives at one instant (the paper's setting)."""

    def __init__(self, at: float = 0.0) -> None:
        if at < 0:
            raise ValueError(f"arrival instant must be non-negative, got {at}")
        self.at = at

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._validate_n(n)
        return np.full(n, self.at)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` cloudlets per second."""

    def __init__(self, rate: float, start: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self.rate = rate
        self.start = start

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._validate_n(n)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return self.start + np.cumsum(gaps)


class BurstyArrivals(ArrivalProcess):
    """On/off load: bursts of ``burst_size`` arrivals, silent gaps between.

    Within a burst, arrivals are Poisson at ``burst_rate``; bursts start
    every ``period`` seconds.  Models the "extreme load" spikes the paper's
    stress narrative describes.
    """

    def __init__(
        self, burst_size: int, burst_rate: float, period: float, start: float = 0.0
    ) -> None:
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        if burst_rate <= 0 or period <= 0:
            raise ValueError("burst_rate and period must be positive")
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self.burst_size = burst_size
        self.burst_rate = burst_rate
        self.period = period
        self.start = start

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._validate_n(n)
        times = np.empty(n)
        filled = 0
        burst_index = 0
        while filled < n:
            count = min(self.burst_size, n - filled)
            offset = self.start + burst_index * self.period
            gaps = rng.exponential(1.0 / self.burst_rate, size=count)
            burst_times = offset + np.cumsum(gaps)
            times[filled : filled + count] = burst_times
            filled += count
            burst_index += 1
        return np.maximum.accumulate(times)


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (day/night load cycles).

    The instantaneous rate is
    ``base_rate * (1 + amplitude * sin(2π t / period))``, sampled exactly
    with Lewis & Shedler thinning against the peak rate.  ``amplitude``
    must lie in [0, 1) so the rate stays positive.
    """

    def __init__(
        self, base_rate: float, period: float, amplitude: float = 0.8
    ) -> None:
        if base_rate <= 0 or period <= 0:
            raise ValueError("base_rate and period must be positive")
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        self.base_rate = base_rate
        self.period = period
        self.amplitude = amplitude

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        return self.base_rate * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._validate_n(n)
        peak = self.base_rate * (1.0 + self.amplitude)
        times = np.empty(n)
        t = 0.0
        filled = 0
        while filled < n:
            t += float(rng.exponential(1.0 / peak))
            if rng.random() < self.rate_at(t) / peak:
                times[filled] = t
                filled += 1
        return times


__all__ = [
    "ArrivalProcess",
    "BatchArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
]
