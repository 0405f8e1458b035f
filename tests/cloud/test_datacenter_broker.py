"""Datacenter + broker protocol integration on the DES kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.broker import DatacenterBroker
from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.datacenter import Datacenter
from repro.cloud.host import Host
from repro.cloud.online import OnlineBroker
from repro.cloud.resilience import ImmediateRetry, ReschedulingBroker
from repro.cloud.simulation import build_simulation
from repro.cloud.vm import Vm
from repro.core.engine import Simulation
from repro.core.rng import spawn_rng
from repro.schedulers import RoundRobinScheduler, SchedulingContext
from repro.schedulers.online import OnlineRoundRobin
from repro.workflows.broker import WorkflowBroker
from repro.workflows.dag import WorkflowSpec, WorkflowTask
from repro.workloads.homogeneous import homogeneous_scenario

#: every DES broker; each follows the one protocol of the broker core.
BROKER_KINDS = ["batch", "rescheduling", "online", "workflow"]


def make_broker(kind, scenario, vms, cloudlets, vm_placement):
    """One broker of ``kind`` over ``scenario``'s VMs and cloudlets."""
    assignment = [i % len(vms) for i in range(len(cloudlets))]
    context = SchedulingContext.from_scenario(scenario, 0)
    if kind == "batch":
        return DatacenterBroker("b", vms, cloudlets, assignment, vm_placement)
    if kind == "rescheduling":
        return ReschedulingBroker(
            "b", vms, cloudlets, assignment, vm_placement,
            scheduler=RoundRobinScheduler(), context=context,
            retry_policy=ImmediateRetry(), rng=spawn_rng(0, "t"),
        )
    if kind == "online":
        return OnlineBroker(
            "b", vms, cloudlets, np.zeros(len(cloudlets)), OnlineRoundRobin(),
            context, vm_placement,
        )
    tasks = tuple(
        WorkflowTask(task_id=i, length=c.length) for i, c in enumerate(cloudlets)
    )
    workflow = WorkflowSpec(
        name="chain", tasks=tasks,
        edges=tuple((i, i + 1, 10.0) for i in range(len(tasks) - 1)),
    )
    return WorkflowBroker(
        "b", workflow, scenario, vms, np.asarray(assignment), vm_placement
    )


def make_host(host_id=0, pes=8, mips=2000.0):
    return Host(
        host_id=host_id, mips_per_pe=mips, pes=pes, ram=1e6, bw=1e6, storage=1e9
    )


def build(num_vms=2, num_cloudlets=4, vm_mips=(1000.0, 2000.0), lengths=None):
    sim = Simulation()
    dc = Datacenter("dc-0", hosts=[make_host()], characteristics=DatacenterCharacteristics())
    sim.register(dc)
    vms = [Vm(vm_id=i, mips=vm_mips[i % len(vm_mips)]) for i in range(num_vms)]
    if lengths is None:
        lengths = [1000.0 * (i + 1) for i in range(num_cloudlets)]
    cloudlets = [Cloudlet(cloudlet_id=i, length=lengths[i]) for i in range(num_cloudlets)]
    assignment = [i % num_vms for i in range(num_cloudlets)]
    broker = DatacenterBroker(
        "broker",
        vms=vms,
        cloudlets=cloudlets,
        assignment=assignment,
        vm_placement={i: dc.id for i in range(num_vms)},
    )
    sim.register(broker)
    return sim, dc, broker, vms, cloudlets


class TestProtocol:
    def test_all_cloudlets_finish(self):
        sim, dc, broker, vms, cloudlets = build()
        sim.run()
        assert broker.all_finished
        assert dc.finished_count == len(cloudlets)
        assert all(c.is_finished for c in cloudlets)

    def test_finish_times_match_fifo_semantics(self):
        sim, dc, broker, vms, cloudlets = build(
            num_vms=2, num_cloudlets=4, vm_mips=(1000.0, 2000.0)
        )
        sim.run()
        # VM0 (1000 mips): cloudlets 0 (1000 MI) and 2 (3000 MI) FIFO.
        assert cloudlets[0].finish_time == pytest.approx(1.0)
        assert cloudlets[2].finish_time == pytest.approx(4.0)
        # VM1 (2000 mips): cloudlets 1 (2000 MI) and 3 (4000 MI).
        assert cloudlets[1].finish_time == pytest.approx(1.0)
        assert cloudlets[3].finish_time == pytest.approx(3.0)

    def test_accumulated_cost_matches_characteristics(self):
        sim, dc, broker, vms, cloudlets = build()
        sim.run()
        expected = sum(
            dc.characteristics.cloudlet_cost(c, vms[c.vm_id]) for c in cloudlets
        )
        assert dc.accumulated_cost == pytest.approx(expected)

    def test_vms_are_placed_on_hosts(self):
        sim, dc, broker, vms, cloudlets = build()
        sim.run()
        assert all(vm.is_created for vm in vms)
        assert dc.hosts[0].vm_count == len(vms)

    @pytest.mark.parametrize("kind", BROKER_KINDS)
    def test_broker_raises_when_vm_cannot_be_placed(self, kind):
        """Every rejected VM is listed, once the last ack is in."""
        scenario = homogeneous_scenario(2, 2, seed=0)
        env = build_simulation(scenario)
        sim = Simulation()
        # Host too slow for either 1000-MIPS VM.
        dc = Datacenter("dc-0", hosts=[make_host(mips=500.0)])
        sim.register(dc)
        broker = make_broker(kind, scenario, env.vms, env.cloudlets, {0: dc.id, 1: dc.id})
        sim.register(broker)
        with pytest.raises(RuntimeError, match=r"rejected VMs \[0, 1\] \(2 total\)"):
            sim.run()

class TestValidation:
    def test_assignment_length_mismatch(self):
        vms = [Vm(vm_id=0, mips=1000.0)]
        cloudlets = [Cloudlet(cloudlet_id=0, length=1.0)]
        with pytest.raises(ValueError, match="assignment length"):
            DatacenterBroker("b", vms, cloudlets, assignment=[], vm_placement={0: 0})

    def test_assignment_out_of_range(self):
        vms = [Vm(vm_id=0, mips=1000.0)]
        cloudlets = [Cloudlet(cloudlet_id=0, length=1.0)]
        with pytest.raises(ValueError, match="valid vm index"):
            DatacenterBroker("b", vms, cloudlets, assignment=[5], vm_placement={0: 0})

    def test_missing_vm_placement(self):
        vms = [Vm(vm_id=0, mips=1000.0)]
        cloudlets = [Cloudlet(cloudlet_id=0, length=1.0)]
        with pytest.raises(ValueError, match="vm_placement missing"):
            DatacenterBroker("b", vms, cloudlets, assignment=[0], vm_placement={})

    def test_datacenter_requires_hosts(self):
        with pytest.raises(ValueError, match="at least one host"):
            Datacenter("dc", hosts=[])


class TestMultiDatacenter:
    def test_cloudlets_routed_to_owning_datacenter(self):
        sim = Simulation()
        dc0 = Datacenter("dc-0", hosts=[make_host()])
        dc1 = Datacenter("dc-1", hosts=[make_host()])
        sim.register_all([dc0, dc1])
        vms = [Vm(vm_id=0, mips=1000.0), Vm(vm_id=1, mips=1000.0)]
        cloudlets = [Cloudlet(cloudlet_id=i, length=500.0) for i in range(4)]
        broker = DatacenterBroker(
            "broker",
            vms=vms,
            cloudlets=cloudlets,
            assignment=[0, 1, 0, 1],
            vm_placement={0: dc0.id, 1: dc1.id},
        )
        sim.register(broker)
        sim.run()
        assert dc0.finished_count == 2
        assert dc1.finished_count == 2
        assert {c.datacenter_id for c in cloudlets} == {dc0.id, dc1.id}
