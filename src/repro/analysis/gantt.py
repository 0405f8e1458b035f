"""ASCII Gantt charts of simulation results.

Renders per-VM execution timelines from a
:class:`~repro.cloud.simulation.SimulationResult` — the fastest way to *see*
what a scheduler did: round-robin's ragged right edge, greedy's level
profile, MET's single loaded row.

Intended for small runs (tens of VMs); larger fleets are summarised by the
busiest/least-busy rows.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.simulation import SimulationResult
from repro.core.checks import check_number


def gantt_chart(
    result: SimulationResult,
    num_vms: int | None = None,
    width: int = 72,
    max_rows: int = 24,
) -> str:
    """Render per-VM busy intervals as an ASCII Gantt chart.

    Each row is a VM; each column is a time bucket of ``makespan / width``
    seconds.  A cell shows ``#`` when the VM executes for more than half
    the bucket, ``-`` for partial occupancy, and space when idle.  When the
    fleet exceeds ``max_rows``, the rows with the highest and lowest busy
    time are kept (annotated with an ellipsis marker).
    """
    check_number("width", width, ge=10, integer=True)
    check_number("max_rows", max_rows, ge=2, integer=True)
    if num_vms is None:
        num_vms = int(result.assignment.max()) + 1 if result.assignment.size else 0
    if num_vms < 1:
        raise ValueError("result has no assignments to draw")
    horizon = float(result.finish_times.max())
    if horizon <= 0:
        raise ValueError("result has a non-positive horizon")

    bucket = horizon / width
    occupancy = np.zeros((num_vms, width))
    for vm, start, finish in zip(
        result.assignment, result.start_times, result.finish_times
    ):
        first = int(start / bucket)
        last = min(int(np.ceil(finish / bucket)), width)
        for b in range(first, last):
            lo, hi = b * bucket, (b + 1) * bucket
            overlap = max(0.0, min(finish, hi) - max(start, lo))
            occupancy[vm, b] += overlap

    busy = occupancy.sum(axis=1)
    rows = np.arange(num_vms)
    truncated = False
    if num_vms > max_rows:
        order = np.argsort(-busy)
        keep = np.concatenate([order[: max_rows // 2], order[-max_rows // 2 :]])
        rows = np.sort(keep)
        truncated = True

    gutter = len(f"vm{num_vms - 1}") + 1
    lines = [
        f"{result.scheduler_name}: makespan {result.makespan:.3g}s "
        f"(#/- = busy/partial, bucket {bucket:.3g}s)"
    ]
    for vm in rows:
        cells = []
        for b in range(width):
            frac = occupancy[vm, b] / bucket
            cells.append("#" if frac > 0.5 else ("-" if frac > 0.0 else " "))
        lines.append(f"{f'vm{vm}'.rjust(gutter)}|{''.join(cells)}|")
    if truncated:
        lines.append(
            f"{' ' * gutter}({num_vms - len(rows)} mid-load VMs omitted)"
        )
    lines.append(f"{' ' * gutter}0{' ' * (width - len(f'{horizon:.3g}'))}{horizon:.3g}s")
    return "\n".join(lines)


__all__ = ["gantt_chart"]
