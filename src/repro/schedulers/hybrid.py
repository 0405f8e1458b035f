"""The paper's future-work hybrid scheduler.

Section VII sketches "a hybrid scheduling algorithm in which the
conditions of the system and environment against pre-selected requirements
function as key elements to select a specific behavior of the scheduling
algorithm", to be built as "a modular solution".

This module realises that sketch: the hybrid wraps the studied schedulers
as interchangeable modules and dispatches per batch:

* an explicit :class:`HybridObjective` forces the matching specialist —
  ``PERFORMANCE`` → ACO (best makespan in the paper's Fig. 6a),
  ``COST`` → HBO (best processing cost, Fig. 6d),
  ``BALANCE`` → RBS (best non-trivial imbalance, Fig. 6c);
* ``AUTO`` inspects the environment: a (near-)homogeneous fleet needs no
  advanced decision-making, so the Base Test wins on scheduling time
  (the paper's homogeneous conclusion); a heterogeneous fleet with widely
  spread datacenter prices favours HBO; otherwise ACO.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.checks import check_number
from repro.schedulers.aco import AntColonyScheduler
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingResult
from repro.schedulers.hbo import HoneyBeeScheduler
from repro.schedulers.rbs import RandomBiasedSamplingScheduler
from repro.schedulers.round_robin import RoundRobinScheduler


class HybridObjective(enum.Enum):
    """Which requirement the hybrid should optimise for."""

    AUTO = "auto"
    PERFORMANCE = "performance"
    COST = "cost"
    BALANCE = "balance"


class HybridScheduler(Scheduler):
    """Objective-driven dispatch over the paper's schedulers.

    Parameters
    ----------
    objective:
        The pre-selected requirement; ``AUTO`` derives it from the
        environment (see module docstring).
    heterogeneity_threshold:
        Coefficient of variation of VM MIPS below which the fleet counts
        as homogeneous in ``AUTO`` mode.
    cost_spread_threshold:
        Relative spread (max/min) of datacenter composite unit prices
        above which ``AUTO`` prefers HBO.
    **scheduler_kwargs:
        ``aco=``, ``hbo=``, ``rbs=``, ``base=`` keyword overrides to
        inject configured module instances.
    """

    def __init__(
        self,
        objective: HybridObjective | str = HybridObjective.AUTO,
        heterogeneity_threshold: float = 0.05,
        cost_spread_threshold: float = 1.5,
        aco: AntColonyScheduler | None = None,
        hbo: HoneyBeeScheduler | None = None,
        rbs: RandomBiasedSamplingScheduler | None = None,
        base: RoundRobinScheduler | None = None,
    ) -> None:
        if isinstance(objective, str):
            objective = HybridObjective(objective)
        self.objective = objective
        self.heterogeneity_threshold = check_number(
            "heterogeneity_threshold", heterogeneity_threshold, ge=0
        )
        self.cost_spread_threshold = check_number(
            "cost_spread_threshold", cost_spread_threshold, ge=1
        )
        self._aco = aco or AntColonyScheduler()
        self._hbo = hbo or HoneyBeeScheduler()
        self._rbs = rbs or RandomBiasedSamplingScheduler()
        self._base = base or RoundRobinScheduler()

    @property
    def name(self) -> str:
        return "hybrid"

    # -- dispatch ------------------------------------------------------------------

    def choose_module(self, context: SchedulingContext) -> Scheduler:
        """Resolve which module will handle this batch (exposed for tests)."""
        if self.objective is HybridObjective.PERFORMANCE:
            return self._aco
        if self.objective is HybridObjective.COST:
            return self._hbo
        if self.objective is HybridObjective.BALANCE:
            return self._rbs
        return self._auto_choice(context)

    def _auto_choice(self, context: SchedulingContext) -> Scheduler:
        arr = context.arrays
        mips = arr.vm_mips
        cv = float(mips.std() / mips.mean()) if mips.mean() > 0 else 0.0
        if cv <= self.heterogeneity_threshold:
            # Homogeneous fleet: cyclic assignment is optimal and cheapest
            # to compute (the paper's homogeneous-scenario conclusion).
            return self._base
        composite = (
            arr.dc_cost_per_mem + arr.dc_cost_per_storage + arr.dc_cost_per_bw
        )
        low = float(composite.min())
        spread = float(composite.max()) / low if low > 0 else np.inf
        if spread >= self.cost_spread_threshold:
            return self._hbo
        return self._aco

    def schedule(self, context: SchedulingContext) -> SchedulingResult:
        module = self.choose_module(context)
        result = module.schedule(context)
        info = {
            "delegated_to": module.name,
            "objective": self.objective.value,
            **{f"module_{k}": v for k, v in result.info.items()},
        }
        # Iterative delegates (ACO today) run on the shared optimizer stack;
        # surface their convergence trace under the uniform key so benches
        # can plot hybrid runs alongside the other metaheuristics.
        if "convergence" in result.info:
            info["convergence"] = result.info["convergence"]
        return SchedulingResult(
            assignment=result.assignment,
            scheduler_name=self.name,
            info=info,
        )


__all__ = ["HybridScheduler", "HybridObjective"]
