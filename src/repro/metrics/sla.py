"""SLA / deadline metrics.

The paper's introduction names "deadlines for hard real-time applications"
and "SLA agreements" as the demands schedulers must absorb; these helpers
quantify them for a finished batch: violation counts/rates, lateness and
tardiness aggregates.

Deadlines are absolute simulation times (index-aligned with finish times);
``inf`` means "no deadline" and never violates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import check_number


def _aligned(finish_times, deadlines) -> tuple[np.ndarray, np.ndarray]:
    finish = np.asarray(finish_times, dtype=float)
    deadline = np.asarray(deadlines, dtype=float)
    if finish.ndim != 1 or finish.size == 0:
        raise ValueError("finish_times must be a non-empty 1-D sequence")
    if finish.shape != deadline.shape:
        raise ValueError("finish_times and deadlines must be index-aligned")
    return finish, deadline


def lateness(finish_times, deadlines) -> np.ndarray:
    """Signed per-task ``finish - deadline`` (negative = early)."""
    finish, deadline = _aligned(finish_times, deadlines)
    return finish - deadline


def tardiness(finish_times, deadlines) -> np.ndarray:
    """Per-task ``max(0, finish - deadline)``."""
    return np.maximum(lateness(finish_times, deadlines), 0.0)


def violations(finish_times, deadlines, tolerance: float = 1e-9) -> np.ndarray:
    """Boolean per-task deadline-missed vector."""
    return lateness(finish_times, deadlines) > tolerance


@dataclass(frozen=True, slots=True)
class SlaReport:
    """Aggregate SLA outcome of one batch."""

    total: int
    violated: int
    violation_rate: float
    mean_tardiness: float
    max_tardiness: float

    def __str__(self) -> str:
        return (
            f"{self.violated}/{self.total} deadlines missed "
            f"({self.violation_rate:.1%}); mean tardiness "
            f"{self.mean_tardiness:.3g}s, max {self.max_tardiness:.3g}s"
        )


def sla_report(finish_times, deadlines) -> SlaReport:
    """Summarise deadline compliance for a batch."""
    tardy = tardiness(finish_times, deadlines)
    violated = int((tardy > 1e-9).sum())
    constrained = np.isfinite(np.asarray(deadlines, dtype=float))
    total = int(constrained.sum())
    return SlaReport(
        total=total,
        violated=violated,
        violation_rate=violated / total if total else 0.0,
        mean_tardiness=float(tardy[constrained].mean()) if total else 0.0,
        max_tardiness=float(tardy.max()) if tardy.size else 0.0,
    )


def relative_deadlines(
    lengths, vm_mean_mips: float, slack_factor: float, arrival_times=None
) -> np.ndarray:
    """Synthesize deadlines: ``arrival + slack_factor * length / mean_mips``.

    A slack factor of 1 demands mean-speed immediate execution; realistic
    studies use 2-10.
    """
    lengths = np.asarray(lengths, dtype=float)
    check_number("vm_mean_mips", vm_mean_mips, gt=0)
    check_number("slack_factor", slack_factor, gt=0)
    base = np.zeros_like(lengths) if arrival_times is None else np.asarray(
        arrival_times, dtype=float
    )
    return base + slack_factor * lengths / vm_mean_mips


__all__ = [
    "lateness",
    "tardiness",
    "violations",
    "SlaReport",
    "sla_report",
    "relative_deadlines",
]
