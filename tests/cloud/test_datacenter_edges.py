"""Datacenter/broker edge paths: destroy, unknown tags, failure statuses."""

from __future__ import annotations

import pytest

from repro.cloud.broker import DatacenterBroker
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.datacenter import Datacenter
from repro.cloud.host import Host
from repro.cloud.simulation import build_simulation
from repro.cloud.vm import Vm
from repro.core.engine import Simulation
from repro.core.tags import EventTag
from repro.workloads.homogeneous import homogeneous_scenario
from tests.cloud.test_datacenter_broker import BROKER_KINDS, make_broker


def make_host():
    return Host(host_id=0, mips_per_pe=2000.0, pes=8, ram=1e6, bw=1e6, storage=1e9)


def minimal_sim():
    sim = Simulation()
    dc = Datacenter("dc", hosts=[make_host()])
    sim.register(dc)
    return sim, dc


class TestVmDestroy:
    def test_destroy_releases_host_resources(self):
        sim, dc = minimal_sim()
        vm = Vm(vm_id=0, mips=1000.0)
        cloudlets = [Cloudlet(cloudlet_id=0, length=100.0)]
        broker = DatacenterBroker(
            "b", [vm], cloudlets, assignment=[0], vm_placement={0: dc.id}
        )
        sim.register(broker)
        sim.run()
        assert dc.hosts[0].vm_count == 1
        broker.send_now(dc, EventTag.VM_DESTROY, data=vm)
        sim.run()
        assert dc.hosts[0].vm_count == 0
        assert len(dc.vms) == 0

    def test_destroy_unknown_vm_raises(self):
        sim, dc = minimal_sim()

        class Poker(DatacenterBroker):
            pass

        broker = Poker(
            "b",
            [Vm(vm_id=0, mips=1000.0)],
            [Cloudlet(cloudlet_id=0, length=100.0)],
            assignment=[0],
            vm_placement={0: dc.id},
        )
        sim.register(broker)
        sim.run()
        ghost = Vm(vm_id=99, mips=1000.0)
        broker.send_now(dc, EventTag.VM_DESTROY, data=ghost)
        with pytest.raises(ValueError, match="not hosted"):
            sim.run()


class TestUnexpectedTags:
    def test_datacenter_rejects_unknown_tag(self):
        sim, dc = minimal_sim()
        sim.schedule(delay=0.0, src=-1, dst=dc.id, tag=EventTag.CLOUDLET_RETURN, data=None)
        with pytest.raises(ValueError, match="unexpected event tag"):
            sim.run()

    def test_datacenter_ignores_none_tag(self):
        sim, dc = minimal_sim()
        sim.schedule(delay=0.0, src=-1, dst=dc.id, tag=EventTag.NONE)
        sim.run()  # no error

    @pytest.mark.parametrize("kind", BROKER_KINDS)
    def test_broker_rejects_unknown_tag(self, kind):
        scenario = homogeneous_scenario(2, 2, seed=0)
        env = build_simulation(scenario)
        broker = make_broker(kind, scenario, env.vms, env.cloudlets, env.vm_placement)
        env.sim.register(broker)
        env.sim.run()
        assert broker.all_finished
        env.sim.schedule(
            delay=0.0, src=-1, dst=broker.id, tag=EventTag.VM_DATACENTER_EVENT
        )
        with pytest.raises(ValueError, match="unexpected event tag"):
            env.sim.run()

    @pytest.mark.parametrize("kind", BROKER_KINDS)
    def test_broker_ignores_none_and_end_of_simulation(self, kind):
        scenario = homogeneous_scenario(2, 2, seed=0)
        env = build_simulation(scenario)
        broker = make_broker(kind, scenario, env.vms, env.cloudlets, env.vm_placement)
        env.sim.register(broker)
        for tag in (EventTag.NONE, EventTag.END_OF_SIMULATION):
            env.sim.schedule(delay=0.0, src=-1, dst=broker.id, tag=tag)
        env.sim.run()  # no error
        assert broker.all_finished


class TestFailedCloudletPath:
    def test_plain_broker_raises_on_cloudlet_to_missing_vm(self):
        """A cloudlet routed to a datacenter that never created its VM comes
        back FAILED, which the non-resilient broker treats as fatal."""
        sim = Simulation()
        dc0 = Datacenter("dc0", hosts=[make_host()])
        dc1 = Datacenter("dc1", hosts=[make_host()])
        sim.register_all([dc0, dc1])
        vm = Vm(vm_id=0, mips=1000.0)
        cloudlet = Cloudlet(cloudlet_id=0, length=100.0)

        class Misrouter(DatacenterBroker):
            def _on_fleet_ready(self):
                # Route the cloudlet to dc1 although the VM lives in dc0.
                self.cloudlets[0].vm_id = 0
                self.send_now(dc1.id, EventTag.CLOUDLET_SUBMIT, data=self.cloudlets[0])

        broker = Misrouter("b", [vm], [cloudlet], assignment=[0], vm_placement={0: dc0.id})
        sim.register(broker)
        with pytest.raises(RuntimeError, match="failed"):
            sim.run()

    def test_failing_unknown_vm_is_counted_and_ignored(self):
        """A fault delivery for a VM that is already gone (e.g. killed by an
        earlier co-located host crash) must not blow up the run."""
        sim, dc = minimal_sim()
        sim.schedule(delay=0.0, src=-1, dst=dc.id, tag=EventTag.VM_FAILURE, data=42)
        sim.run()
        assert dc.faults_ignored == 1
        assert dc.vm_failures == 0
