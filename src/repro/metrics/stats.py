"""Summary statistics for repeated experiment runs.

The sweep harness repeats each (scheduler, scale) cell over several seeds;
these helpers reduce the samples to mean / std / confidence intervals using
Student's t (scipy) so EXPERIMENTS.md can report uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import check_number


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Mean, spread and t-based confidence half-width of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_halfwidth: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.6g}"
        return f"{self.mean:.6g} ± {self.ci_halfwidth:.2g} (n={self.n})"


def confidence_interval(samples, confidence: float = 0.95) -> float:
    """Half-width of the t-distribution confidence interval of the mean.

    Returns 0 for a single sample (no spread information).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    check_number("confidence", confidence, gt=0, lt=1)
    if arr.size == 1:
        return 0.0
    sem = arr.std(ddof=1) / np.sqrt(arr.size)
    if sem == 0:
        return 0.0
    # Deferred: scipy.stats costs ~1 s and tens of MiB per interpreter, and
    # nothing on the streaming, batch or serve paths needs it.
    from scipy import stats as sps

    t_crit = sps.t.ppf((1 + confidence) / 2, df=arr.size - 1)
    return float(t_crit * sem)


def summarize(samples, confidence: float = 0.95) -> SummaryStats:
    """Reduce a sample vector to :class:`SummaryStats`."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_halfwidth=confidence_interval(arr, confidence),
    )


__all__ = ["SummaryStats", "summarize", "confidence_interval"]
