"""Scenario value objects and array views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.spec import CloudletSpec, DatacenterSpec, ScenarioSpec, VmSpec


class TestVmSpec:
    def test_build_materialises_vm(self):
        spec = VmSpec(mips=1500.0, ram=256.0)
        vm = spec.build(vm_id=3)
        assert vm.vm_id == 3
        assert vm.mips == 1500.0
        assert vm.ram == 256.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            VmSpec(mips=0.0)
        with pytest.raises(ValueError):
            VmSpec(mips=100.0, ram=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            VmSpec(mips=100.0).mips = 5.0


class TestCloudletSpec:
    def test_build(self):
        c = CloudletSpec(length=123.0).build(cloudlet_id=9)
        assert c.cloudlet_id == 9
        assert c.length == 123.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CloudletSpec(length=0.0)
        with pytest.raises(ValueError):
            CloudletSpec(length=1.0, file_size=-1.0)


class TestDatacenterSpec:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            DatacenterSpec(host_pes=0)


class TestScenarioSpec:
    def test_validation(self, tiny_scenario):
        assert tiny_scenario.num_vms == 4
        assert tiny_scenario.num_cloudlets == 8
        assert tiny_scenario.num_datacenters == 2

    def test_requires_nonempty_collections(self, tiny_scenario):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(tiny_scenario, vms=(), vm_datacenter=())
        with pytest.raises(ValueError):
            dataclasses.replace(tiny_scenario, cloudlets=())
        with pytest.raises(ValueError):
            dataclasses.replace(tiny_scenario, datacenters=())

    def test_vm_datacenter_alignment_enforced(self, tiny_scenario):
        import dataclasses

        with pytest.raises(ValueError, match="aligned"):
            dataclasses.replace(tiny_scenario, vm_datacenter=(0,))
        with pytest.raises(ValueError, match="invalid datacenter"):
            dataclasses.replace(tiny_scenario, vm_datacenter=(0, 1, 0, 9))

    def test_vms_in_datacenter(self, tiny_scenario):
        assert list(tiny_scenario.vms_in_datacenter(0)) == [0, 2]
        assert list(tiny_scenario.vms_in_datacenter(1)) == [1, 3]

    def test_arrays_cached(self, tiny_scenario):
        assert tiny_scenario.arrays() is tiny_scenario.arrays()

    def test_array_contents(self, tiny_scenario):
        arr = tiny_scenario.arrays()
        np.testing.assert_array_equal(arr.vm_mips, [500.0, 1000.0, 2000.0, 4000.0])
        np.testing.assert_array_equal(arr.vm_datacenter, [0, 1, 0, 1])
        assert arr.cloudlet_length.shape == (8,)
        assert arr.dc_cost_per_cpu.shape == (2,)

    def test_exec_time_matrix_shape_and_values(self, tiny_scenario):
        arr = tiny_scenario.arrays()
        matrix = arr.exec_time_matrix()
        assert matrix.shape == (8, 4)
        expected_00 = arr.cloudlet_length[0] / arr.vm_mips[0] + (
            arr.cloudlet_file_size[0] / arr.vm_bw[0]
        )
        assert matrix[0, 0] == pytest.approx(expected_00)

    def test_exec_time_handles_zero_bandwidth(self, tiny_scenario):
        import dataclasses

        vms = tuple(dataclasses.replace(v, bw=0.0) for v in tiny_scenario.vms)
        scenario = dataclasses.replace(tiny_scenario, vms=vms)
        arr = scenario.arrays()
        row = arr.expected_exec_time(0)
        assert np.isfinite(row).all()
        np.testing.assert_allclose(row, arr.cloudlet_length[0] / arr.vm_mips)

    @pytest.mark.parametrize("zero_bw", [False, True])
    def test_assigned_exec_time_reads_the_rows_bit_for_bit(self, tiny_scenario, zero_bw):
        import dataclasses

        vms = tuple(
            dataclasses.replace(v, bw=0.0) if zero_bw and j % 2 else v
            for j, v in enumerate(tiny_scenario.vms)
        )
        arr = dataclasses.replace(tiny_scenario, vms=vms).arrays()
        assignment = np.random.default_rng(0).integers(0, arr.num_vms, arr.num_cloudlets)
        expected = [arr.expected_exec_time(i)[j] for i, j in enumerate(assignment)]
        assert arr.assigned_exec_time(assignment).tolist() == expected
