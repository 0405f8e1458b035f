"""Performance metrics.

Implements the paper's four measurements (Section VI-C):

* scheduling time — wall-clock duration of the scheduler's decision,
* simulation time — makespan of the cloudlet batch (Eq. 12),
* time imbalance — ``(Tmax - Tmin) / Tavg`` of cloudlet execution times
  (Eq. 13),
* processing cost — datacenter-priced resource usage (Section VI-C4),

plus waiting-time/throughput/fairness helpers and summary statistics
used by the experiment harness.  The simulation façades time the
scheduler themselves (:func:`repro.cloud.simulation.timed_schedule`).
"""

from repro.metrics.definitions import (
    average_waiting_time,
    jain_fairness_index,
    makespan,
    processing_cost,
    throughput,
    time_imbalance,
)
from repro.metrics.resilience import (
    RecoveryMetrics,
    makespan_degradation,
    recovery_metrics,
    storm_metrics,
)
from repro.metrics.sla import (
    SlaReport,
    lateness,
    relative_deadlines,
    sla_report,
    tardiness,
    violations,
)
from repro.metrics.stats import SummaryStats, confidence_interval, summarize

__all__ = [
    "makespan",
    "time_imbalance",
    "processing_cost",
    "average_waiting_time",
    "throughput",
    "SummaryStats",
    "summarize",
    "confidence_interval",
    "SlaReport",
    "lateness",
    "tardiness",
    "violations",
    "sla_report",
    "relative_deadlines",
    "jain_fairness_index",
    "RecoveryMetrics",
    "recovery_metrics",
    "makespan_degradation",
    "storm_metrics",
]
