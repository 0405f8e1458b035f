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

from repro.core.checks import check_number

class ArrivalProcess(abc.ABC):
    """Generates arrival times for a batch of cloudlets."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Return ``n`` non-decreasing arrival times starting at >= 0."""


class BatchArrivals(ArrivalProcess):
    """Everything arrives at one instant (the paper's setting)."""

    def __init__(self, at: float = 0.0) -> None:
        self.at = check_number("at", at, ge=0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        check_number("n", n, ge=1, integer=True)
        return np.full(n, self.at)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` cloudlets per second."""

    def __init__(self, rate: float, start: float = 0.0) -> None:
        self.rate = check_number("rate", rate, gt=0)
        self.start = check_number("start", start, ge=0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        check_number("n", n, ge=1, integer=True)
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
        self.burst_size = check_number("burst_size", burst_size, ge=1, integer=True)
        self.burst_rate = check_number("burst_rate", burst_rate, gt=0)
        self.period = check_number("period", period, gt=0)
        self.start = check_number("start", start, ge=0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        check_number("n", n, ge=1, integer=True)
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
        self.base_rate = check_number("base_rate", base_rate, gt=0)
        self.period = check_number("period", period, gt=0)
        self.amplitude = check_number("amplitude", amplitude, ge=0, lt=1)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        return self.base_rate * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        check_number("n", n, ge=1, integer=True)
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
