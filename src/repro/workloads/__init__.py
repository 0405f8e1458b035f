"""Workload and scenario generation.

``spec`` holds the value objects (VM / cloudlet / datacenter specs and the
:class:`~repro.workloads.spec.ScenarioSpec` bundle).  ``streaming`` defines
the paper's two experimental setups (Tables III-VII) once, as streams that
generate a scenario one fixed-size chunk at a time in bounded memory;
``homogeneous`` and ``heterogeneous`` hold the tables' constants and the
spec builders, which are those streams' ``to_spec()``.  ``synthetic``
provides a general distribution-driven generator used by the extension
experiments, and ``traces`` round-trips scenarios through CSV/JSON for
offline workloads.
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    BatchArrivals,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.spec import (
    CloudletSpec,
    DatacenterSpec,
    ScenarioSpec,
    VmSpec,
)
from repro.workloads.streaming import (
    DEFAULT_CHUNK_SIZE,
    ScenarioChunks,
    heterogeneous_stream,
    homogeneous_stream,
)
from repro.workloads.synthetic import (
    DistributionSpec,
    SyntheticWorkloadBuilder,
)
from repro.workloads.timeline import (
    Burst,
    Drift,
    RateChange,
    RateRamp,
    Timeline,
    TimelineArrivals,
    Trigger,
    VmFault,
    parse_duration,
    parse_time,
    timeline_from_dict,
)
from repro.workloads.tracelike import diurnal_arrivals_for, tracelike_scenario
from repro.workloads.traces import load_scenario, save_scenario

__all__ = [
    "VmSpec",
    "CloudletSpec",
    "DatacenterSpec",
    "ScenarioSpec",
    "homogeneous_scenario",
    "heterogeneous_scenario",
    "ScenarioChunks",
    "homogeneous_stream",
    "heterogeneous_stream",
    "DEFAULT_CHUNK_SIZE",
    "DistributionSpec",
    "SyntheticWorkloadBuilder",
    "save_scenario",
    "load_scenario",
    "ArrivalProcess",
    "BatchArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "tracelike_scenario",
    "diurnal_arrivals_for",
    "Timeline",
    "TimelineArrivals",
    "RateChange",
    "RateRamp",
    "Burst",
    "VmFault",
    "Drift",
    "Trigger",
    "parse_time",
    "parse_duration",
    "timeline_from_dict",
]
