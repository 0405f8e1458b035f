"""Datacenter pricing model."""

from __future__ import annotations

import pytest

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.cloudlet import Cloudlet
from repro.cloud.vm import Vm


@pytest.fixture
def characteristics() -> DatacenterCharacteristics:
    return DatacenterCharacteristics(
        cost_per_mem=0.05, cost_per_storage=0.001, cost_per_bw=0.01, cost_per_cpu=3.0
    )


@pytest.fixture
def vm() -> Vm:
    return Vm(vm_id=0, mips=1000.0, ram=512.0, bw=500.0, size=5000.0)


@pytest.fixture
def cloudlet() -> Cloudlet:
    return Cloudlet(cloudlet_id=0, length=2000.0, file_size=300.0, output_size=300.0)


class TestCost:
    def test_cloudlet_cost_formula(self, characteristics, vm, cloudlet):
        # cpu: 3.0 * 2000/1000 = 6; mem: 0.05*512 = 25.6;
        # storage: 0.001*5000 = 5; bw: 0.01*600 = 6 -> total 42.6
        assert characteristics.cloudlet_cost(cloudlet, vm) == pytest.approx(42.6)

    def test_faster_vm_costs_less_cpu(self, characteristics, cloudlet):
        slow = Vm(vm_id=0, mips=500.0)
        fast = Vm(vm_id=1, mips=4000.0)
        assert characteristics.cloudlet_cost(cloudlet, fast) < characteristics.cloudlet_cost(
            cloudlet, slow
        )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost_per_mem"):
            DatacenterCharacteristics(cost_per_mem=-0.1)

    def test_frozen(self, characteristics):
        with pytest.raises(AttributeError):
            characteristics.cost_per_mem = 1.0

    def test_defaults(self):
        c = DatacenterCharacteristics()
        assert c.cost_per_cpu == 3.0
        assert c.arch == "x86"
