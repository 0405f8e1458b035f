"""Metric definitions.

All functions accept plain numpy arrays (start/finish/exec-time vectors)
so they work identically on DES results and on the analytic fast path.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import check_number


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def makespan(start_times, finish_times) -> float:
    """Simulation time (paper Eq. 12): latest finish minus earliest start.

    ``Tsim = T_maxFinishTime - T_minStartTime``
    """
    starts = _as_float_array(start_times, "start_times")
    finishes = _as_float_array(finish_times, "finish_times")
    if starts.shape != finishes.shape:
        raise ValueError("start_times and finish_times must have equal length")
    if np.any(finishes + 1e-9 < starts):
        raise ValueError("every finish time must be >= its start time")
    return float(finishes.max() - starts.min())


def time_imbalance(exec_times) -> float:
    """Degree of time imbalance (paper Eq. 13).

    ``Tim = (Tmax - Tmin) / Tavg`` over per-cloudlet execution times.
    Returns 0 for a single cloudlet (no spread).
    """
    times = _as_float_array(exec_times, "exec_times")
    if np.any(times < 0):
        raise ValueError("execution times must be non-negative")
    avg = times.mean()
    if avg <= 0:
        raise ValueError("mean execution time must be positive")
    return float((times.max() - times.min()) / avg)


def processing_cost(
    lengths,
    vm_mips,
    vm_ram,
    vm_size,
    file_sizes,
    output_sizes,
    cost_per_cpu,
    cost_per_mem,
    cost_per_storage,
    cost_per_bw,
) -> np.ndarray:
    """Per-cloudlet processing cost (Section VI-C4, used in Fig. 6d).

    All arguments are index-aligned per cloudlet (VM/datacenter attributes
    already gathered through the assignment):

    ``cost_i = cpu_i * length_i / mips_i + mem_i * ram_i
    + storage_i * size_i + bw_i * (file_i + out_i)``
    """
    lengths = _as_float_array(lengths, "lengths")
    vm_mips = _as_float_array(vm_mips, "vm_mips")
    if np.any(vm_mips <= 0):
        raise ValueError("vm_mips must be positive")
    cpu_seconds = lengths / vm_mips
    return (
        np.asarray(cost_per_cpu, dtype=float) * cpu_seconds
        + np.asarray(cost_per_mem, dtype=float) * np.asarray(vm_ram, dtype=float)
        + np.asarray(cost_per_storage, dtype=float) * np.asarray(vm_size, dtype=float)
        + np.asarray(cost_per_bw, dtype=float)
        * (np.asarray(file_sizes, dtype=float) + np.asarray(output_sizes, dtype=float))
    )


def average_waiting_time(submission_times, start_times) -> float:
    """Mean queueing delay between submission and execution start."""
    submitted = _as_float_array(submission_times, "submission_times")
    started = _as_float_array(start_times, "start_times")
    waits = started - submitted
    if np.any(waits < -1e-9):
        raise ValueError("start times must be >= submission times")
    return float(np.maximum(waits, 0.0).mean())


def throughput(finish_times, horizon: float | None = None) -> float:
    """Cloudlets finished per unit time.

    ``horizon`` defaults to the latest finish time.
    """
    finishes = _as_float_array(finish_times, "finish_times")
    if horizon is None:
        horizon = float(finishes.max())
    check_number("horizon", horizon, gt=0)
    return float(finishes.size / horizon)


def jain_fairness_index(loads) -> float:
    """Jain's fairness index over per-VM loads.

    ``J = (sum x)^2 / (n * sum x^2)`` — 1.0 when perfectly balanced,
    ``1/n`` when one VM carries everything.  A standard load-balancing
    complement to the paper's Eq. 13 imbalance.
    """
    arr = _as_float_array(loads, "loads")
    if np.any(arr < 0):
        raise ValueError("loads must be non-negative")
    total_sq = arr.sum() ** 2
    denom = arr.size * (arr**2).sum()
    if denom == 0:
        raise ValueError("at least one load must be positive")
    return float(total_sq / denom)


__all__ = [
    "makespan",
    "jain_fairness_index",
    "time_imbalance",
    "processing_cost",
    "average_waiting_time",
    "throughput",
]
