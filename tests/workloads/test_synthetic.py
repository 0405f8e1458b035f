"""Synthetic workload builder and distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import spawn_rng
from repro.workloads.synthetic import DistributionSpec, SyntheticWorkloadBuilder


class TestDistributionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            DistributionSpec("zipf", {})

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="missing parameters"):
            DistributionSpec("uniform", {"low": 0})

    @pytest.mark.parametrize(
        "kind,params,low,high",
        [
            ("constant", {"value": 5.0}, 5.0, 5.0),
            ("uniform", {"low": 2.0, "high": 4.0}, 2.0, 4.0),
            ("bimodal", {"low": 1.0, "high": 9.0, "p_high": 0.5}, 1.0, 9.0),
            ("choice", {"values": [3.0, 7.0]}, 3.0, 7.0),
        ],
    )
    def test_bounded_distributions_stay_in_range(self, kind, params, low, high):
        dist = DistributionSpec(kind, params)
        samples = dist.sample(spawn_rng(0, "t"), 500)
        assert samples.min() >= low
        assert samples.max() <= high

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("normal", {"mean": 10.0, "std": 2.0}),
            ("lognormal", {"mean": 1.0, "sigma": 0.5}),
            ("pareto", {"shape": 2.0, "scale": 10.0}),
            ("exponential", {"scale": 3.0}),
        ],
    )
    def test_unbounded_distributions_sample(self, kind, params):
        dist = DistributionSpec(kind, params)
        samples = dist.sample(spawn_rng(0, "t"), 500)
        assert samples.shape == (500,)
        assert np.isfinite(samples).all()

    def test_pareto_respects_scale_floor(self):
        dist = DistributionSpec("pareto", {"shape": 2.0, "scale": 10.0})
        assert dist.sample(spawn_rng(0, "t"), 1000).min() >= 10.0

    def test_bimodal_probability_validated(self):
        with pytest.raises(ValueError, match=r"p_high must be in \[0, 1\]"):
            DistributionSpec("bimodal", {"low": 0.0, "high": 1.0, "p_high": 2.0})

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DistributionSpec("choice", {"values": []})

    @pytest.mark.parametrize(
        ("kind", "params", "message"),
        [
            ("uniform", {"low": float("nan"), "high": 1.0}, "low must be finite"),
            ("uniform", {"low": 5.0, "high": 4.0}, "high must be >= 5.0"),
            ("pareto", {"shape": 0, "scale": 1.0}, "shape must be positive"),
            ("pareto", {"shape": 2.0, "scale": 0.0}, "scale must be positive"),
            ("normal", {"mean": 0.0, "std": -1}, "std must be non-negative"),
            ("lognormal", {"mean": float("inf"), "sigma": 1.0}, "mean must be finite"),
            ("lognormal", {"mean": 0.0, "sigma": -0.5}, "sigma must be non-negative"),
            ("exponential", {"scale": -2.0}, "scale must be non-negative"),
            ("constant", {"value": float("nan")}, "value must be finite"),
            ("constant", {"value": "250"}, "value must be a real number"),
            ("bimodal", {"low": 1.0, "high": float("inf"), "p_high": 0.5}, "high must be finite"),
            ("choice", {"values": [1.0, float("nan")]}, r"values\[1\] must be finite"),
        ],
        ids=[
            "uniform-nan-low", "uniform-reversed", "pareto-zero-shape",
            "pareto-zero-scale", "normal-negative-std", "lognormal-inf-mean",
            "lognormal-negative-sigma", "exponential-negative-scale",
            "constant-nan", "constant-text", "bimodal-inf-high", "choice-nan",
        ],
    )
    def test_bad_parameters_rejected_at_construction(self, kind, params, message):
        """Each of these used to fail at sample time in numpy's words, or
        to sample a column holding inf or NaN."""
        with pytest.raises(ValueError, match=message):
            DistributionSpec(kind, params)


class TestBuilder:
    def test_build_full_scenario(self):
        spec = (
            SyntheticWorkloadBuilder(seed=3)
            .vms(10, mips=DistributionSpec("uniform", {"low": 500, "high": 4000}))
            .cloudlets(
                100, length=DistributionSpec("pareto", {"shape": 2.0, "scale": 1000.0})
            )
            .datacenters(2)
            .build("pareto-mix")
        )
        assert spec.name == "pareto-mix"
        assert spec.num_vms == 10
        assert spec.num_cloudlets == 100
        assert spec.num_datacenters == 2
        arr = spec.arrays()
        assert arr.vm_mips.min() >= 500.0
        assert arr.cloudlet_length.min() >= 1000.0

    def test_defaults_mirror_homogeneous_tables(self):
        spec = SyntheticWorkloadBuilder(seed=0).vms(4).cloudlets(8).build()
        assert {v.mips for v in spec.vms} == {1000.0}
        assert {c.length for c in spec.cloudlets} == {250.0}

    def test_runs_through_simulator(self):
        from repro.cloud.simulation import CloudSimulation
        from repro.schedulers import RoundRobinScheduler

        spec = (
            SyntheticWorkloadBuilder(seed=1)
            .vms(5, mips=DistributionSpec("choice", {"values": [500.0, 2000.0]}))
            .cloudlets(25, length=DistributionSpec("exponential", {"scale": 2000.0}))
            .datacenters(2)
            .build()
        )
        result = CloudSimulation(spec, RoundRobinScheduler(), seed=1).run()
        assert result.makespan > 0

    def test_build_without_vms_rejected(self):
        with pytest.raises(ValueError, match=r"\.vms"):
            SyntheticWorkloadBuilder().cloudlets(5).build()

    def test_build_without_cloudlets_rejected(self):
        with pytest.raises(ValueError, match=r"\.cloudlets"):
            SyntheticWorkloadBuilder().vms(5).build()

    def test_more_datacenters_than_vms_rejected(self):
        builder = SyntheticWorkloadBuilder().vms(2).cloudlets(5).datacenters(4)
        with pytest.raises(ValueError, match="datacenters"):
            builder.build()

    def test_deterministic(self):
        def build():
            return (
                SyntheticWorkloadBuilder(seed=5)
                .vms(6, mips=DistributionSpec("normal", {"mean": 1000, "std": 100}))
                .cloudlets(12)
                .build()
            )

        assert build().vms == build().vms

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadBuilder().vms(0)
        with pytest.raises(ValueError):
            SyntheticWorkloadBuilder().cloudlets(0)
        with pytest.raises(ValueError):
            SyntheticWorkloadBuilder().datacenters(0)
