"""Host power models and batch energy accounting.

The paper's related work motivates energy-aware scheduling (Wang & Wang
[27]); this module provides the substrate to study it on top of the
reproduction: CloudSim-style host power models (power as a function of CPU
utilization) and an energy metric computed from a finished batch.

Energy accounting uses the batch structure of the study (all cloudlets at
t=0, space-shared execution): a VM is busy for the sum of its cloudlets'
execution times and idle for the rest of the horizon, so host energy is the
utilization-weighted integral of the power model over the makespan.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.workloads.spec import ScenarioSpec


class PowerModel(abc.ABC):
    """Maps CPU utilization ∈ [0, 1] to electrical power in watts."""

    @abc.abstractmethod
    def power(self, utilization: float) -> float:
        """Power draw at the given utilization."""

    def power_array(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorised power; subclasses may override for speed."""
        return np.array([self.power(float(u)) for u in np.asarray(utilization)])

    def _check(self, utilization: float) -> None:
        if not -1e-9 <= utilization <= 1 + 1e-9:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")


class PowerModelLinear(PowerModel):
    """CloudSim's linear model: ``idle + (peak - idle) * u``.

    Parameters
    ----------
    idle_watts:
        Draw at zero utilization (static power).
    peak_watts:
        Draw at full utilization.
    """

    def __init__(self, idle_watts: float = 100.0, peak_watts: float = 250.0) -> None:
        if idle_watts < 0 or peak_watts < idle_watts:
            raise ValueError(
                f"need 0 <= idle_watts <= peak_watts, got {idle_watts}, {peak_watts}"
            )
        self.idle_watts = idle_watts
        self.peak_watts = peak_watts

    def power(self, utilization: float) -> float:
        self._check(utilization)
        u = min(max(utilization, 0.0), 1.0)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u

    def power_array(self, utilization: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(utilization, dtype=float), 0.0, 1.0)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u


def vm_busy_times(
    scenario: ScenarioSpec, assignment: np.ndarray, exec_times: np.ndarray
) -> np.ndarray:
    """Total busy seconds per VM for a finished batch."""
    assignment = np.asarray(assignment, dtype=np.int64)
    busy = np.zeros(scenario.num_vms)
    np.add.at(busy, assignment, np.asarray(exec_times, dtype=float))
    return busy


def batch_energy(
    scenario: ScenarioSpec,
    assignment: np.ndarray,
    exec_times: np.ndarray,
    makespan: float,
    power_model: PowerModel | None = None,
    idle_fleet: bool = True,
) -> float:
    """Energy (joules) to execute a batch across the fleet.

    Each VM contributes busy seconds at full-utilization power and — when
    ``idle_fleet`` is set — idle seconds (up to ``makespan``) at idle power.
    One VM is treated as one power domain; host-level consolidation studies
    can divide by VMs-per-host.
    """
    if makespan <= 0:
        raise ValueError(f"makespan must be positive, got {makespan}")
    model = power_model or PowerModelLinear()
    busy = vm_busy_times(scenario, assignment, exec_times)
    if np.any(busy > makespan * (1 + 1e-9)):
        raise ValueError("a VM is busy for longer than the makespan; inputs inconsistent")
    energy_busy = float(busy.sum()) * model.power(1.0)
    if not idle_fleet:
        return energy_busy
    idle_seconds = float((makespan - busy).sum())
    return energy_busy + idle_seconds * model.power(0.0)


def energy_of_result(result, scenario: ScenarioSpec, power_model: PowerModel | None = None) -> float:
    """Convenience wrapper over :func:`batch_energy` for a SimulationResult."""
    return batch_energy(
        scenario,
        result.assignment,
        result.exec_times,
        result.makespan,
        power_model=power_model,
    )


__all__ = [
    "PowerModel",
    "PowerModelLinear",
    "vm_busy_times",
    "batch_energy",
    "energy_of_result",
]
