"""CloudSim-equivalent cloud model.

Entities and value objects modelling an IaaS cloud: datacenters that own
hosts, hosts that run virtual machines, virtual machines that execute
cloudlets (tasks), and a broker that drives VM creation and cloudlet
submission.  The execution semantics follow CloudSim 3.x:

* a cloudlet of length ``L`` MI on a PE of capacity ``mips`` takes
  ``L / mips`` seconds of simulated time;
* a **space-shared** cloudlet scheduler runs at most ``pes`` cloudlets at
  once and queues the rest FIFO;
* a **time-shared** cloudlet scheduler divides the VM's total capacity
  equally among all resident cloudlets (capped at one PE per cloudlet for
  single-PE cloudlets).
"""

from repro.cloud.broker import DatacenterBroker
from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.cloudlet import Cloudlet, CloudletStatus
from repro.cloud.cloudlet_scheduler import (
    CloudletSchedulerSpaceShared,
    CloudletSchedulerTimeShared,
)
from repro.cloud.consolidation import (
    PlacementEnergyReport,
    compare_placement_policies,
    placement_energy,
)
from repro.cloud.chaos import (
    ChaosCell,
    ChaosConfig,
    ChaosReport,
    StormCell,
    StormReport,
    demo_storm_timeline,
    generate_fault_plan,
    load_report_rows,
    run_chaos_suite,
    run_storm_suite,
)
from repro.cloud.control import ControlConfig, ControlLoop
from repro.cloud.datacenter import Datacenter, FaultNotice
from repro.cloud.fast import FastSimulation
from repro.cloud.faults import (
    FaultInjector,
    HostFailure,
    VmFailure,
    VmSlowdown,
    validate_fault_plan,
)
from repro.cloud.host import Host
from repro.cloud.migration import ConsolidationController
from repro.cloud.online import OnlineBroker, OnlineCloudSimulation
from repro.cloud.power import (
    PowerModel,
    PowerModelLinear,
    batch_energy,
    energy_of_result,
)
from repro.cloud.resilience import (
    ExponentialBackoffRetry,
    ImmediateRetry,
    ReschedulingBroker,
    RetryPolicy,
    RoundRobinRecoveryBroker,
    run_resilient,
)
from repro.cloud.simulation import (
    CloudSimulation,
    SimulationEnvironment,
    SimulationResult,
    build_simulation,
    quick_run,
)
from repro.cloud.vm import Vm
from repro.cloud.vm_allocation import (
    VmAllocationConsolidating,
    VmAllocationLeastUsed,
    VmAllocationPolicy,
    VmAllocationRoundRobin,
)

__all__ = [
    "Cloudlet",
    "CloudletStatus",
    "Vm",
    "Host",
    "Datacenter",
    "DatacenterBroker",
    "DatacenterCharacteristics",
    "CloudletSchedulerSpaceShared",
    "CloudletSchedulerTimeShared",
    "VmAllocationPolicy",
    "VmAllocationLeastUsed",
    "VmAllocationRoundRobin",
    "VmAllocationConsolidating",
    "CloudSimulation",
    "SimulationResult",
    "FastSimulation",
    "quick_run",
    "OnlineBroker",
    "OnlineCloudSimulation",
    "PowerModel",
    "PowerModelLinear",
    "batch_energy",
    "energy_of_result",
    "VmFailure",
    "HostFailure",
    "VmSlowdown",
    "FaultNotice",
    "FaultInjector",
    "validate_fault_plan",
    "RetryPolicy",
    "ImmediateRetry",
    "ExponentialBackoffRetry",
    "ReschedulingBroker",
    "RoundRobinRecoveryBroker",
    "run_resilient",
    "ChaosConfig",
    "ChaosCell",
    "ChaosReport",
    "StormCell",
    "StormReport",
    "demo_storm_timeline",
    "generate_fault_plan",
    "run_chaos_suite",
    "run_storm_suite",
    "load_report_rows",
    "ControlConfig",
    "ControlLoop",
    "SimulationEnvironment",
    "build_simulation",
    "PlacementEnergyReport",
    "placement_energy",
    "compare_placement_policies",
    "ConsolidationController",
]
