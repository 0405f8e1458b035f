"""The one numeric-argument check, and the reproductions it closes."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.fast import StreamingSimulation
from repro.cloud.resilience import ExponentialBackoffRetry
from repro.core.checks import check_number
from repro.schedulers import make_scheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.spec import CloudletSpec, DatacenterSpec, VmSpec
from repro.workloads.streaming import ScenarioChunks


class TestCheckNumber:
    @pytest.mark.parametrize(
        "value", [0.4, 3, np.float64(0.5), np.int64(7), np.float32(1.5)]
    )
    def test_numbers_pass_unchanged(self, value):
        assert check_number("x", value) is value

    @pytest.mark.parametrize(
        ("value", "rule"),
        [
            (math.nan, "finite"),
            (math.inf, "finite"),
            (-math.inf, "finite"),
            (np.float64("nan"), "finite"),
            (True, "a real number"),
            (np.bool_(False), "a real number"),
            ("3", "a real number"),
            (None, "a real number"),
        ],
    )
    def test_non_numbers_rejected(self, value, rule):
        with pytest.raises(ValueError, match=f"^x must be {rule}, got "):
            check_number("x", value)

    @pytest.mark.parametrize("value", [2.5, 2.0, math.nan, True, np.float64(3.0)])
    def test_integers_must_be_integral(self, value):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            check_number("n", value, integer=True)

    def test_numpy_integers_are_integers(self):
        assert check_number("n", np.int32(4), ge=1, integer=True) == 4

    @pytest.mark.parametrize(
        ("bounds", "value", "message"),
        [
            ({"ge": 0}, -1, "x must be non-negative, got -1"),
            ({"gt": 0}, 0.0, "x must be positive, got 0.0"),
            ({"ge": 1}, 0, "x must be >= 1, got 0"),
            ({"gt": 1}, 1, "x must be > 1, got 1"),
            ({"le": 5}, 6, "x must be <= 5, got 6"),
            ({"lt": 5}, 5, "x must be < 5, got 5"),
            ({"ge": 0, "le": 1}, 1.5, "x must be in [0, 1], got 1.5"),
            ({"gt": 0, "lt": 1}, 1, "x must be in (0, 1), got 1"),
            ({"ge": 0, "lt": 1}, 1, "x must be in [0, 1), got 1"),
            ({"gt": 0, "le": 1}, 0, "x must be in (0, 1], got 0"),
        ],
    )
    def test_bounds_name_the_rule(self, bounds, value, message):
        with pytest.raises(ValueError) as excinfo:
            check_number("x", value, **bounds)
        assert str(excinfo.value) == message

    def test_bounds_are_inclusive_or_exclusive(self):
        assert check_number("x", 0, ge=0) == 0
        assert check_number("x", 1, le=1) == 1
        with pytest.raises(ValueError):
            check_number("x", 0, gt=0)
        with pytest.raises(ValueError):
            check_number("x", 1, lt=1)


def _nan_length_stream():
    arrays = heterogeneous_scenario(4, 12, seed=0).arrays()
    length = arrays.cloudlet_length.copy()
    length[5] = math.nan
    return StreamingSimulation(
        ScenarioChunks.from_arrays(replace(arrays, cloudlet_length=length)),
        make_scheduler("basetest"),
    )


#: Each of these used to run, or to fail without naming its argument.
REPRODUCTIONS = {
    "vm-mips-nan": (lambda: VmSpec(mips=math.nan), "mips"),
    "cloudlet-length-inf": (lambda: CloudletSpec(length=math.inf), "length"),
    "datacenter-host-mips-nan": (lambda: DatacenterSpec(host_mips=math.nan), "host_mips"),
    "characteristics-cost-nan": (
        lambda: DatacenterCharacteristics(cost_per_mem=math.nan), "cost_per_mem"
    ),
    # Returned makespan nan.
    "stream-nan-length": (_nan_length_stream, "cloudlet_length"),
    # Ran as 2 groups.
    "rbs-fractional-groups": (lambda: make_scheduler("rbs", num_groups=2.5), "num_groups"),
    # Ran as offset 1.
    "basetest-bool-offset": (
        lambda: make_scheduler("basetest", start_offset=True), "start_offset"
    ),
    "stream-fractional-shards": (
        lambda: StreamingSimulation(
            ScenarioChunks.from_spec(heterogeneous_scenario(4, 12, seed=0)),
            make_scheduler("basetest"),
            shards=2.5,
        ),
        "shards",
    ),
    # A resilient run drained with 25 of 30 cloudlets finished.
    "backoff-infinite-delays": (
        lambda: ExponentialBackoffRetry(base_delay=math.inf, max_delay=math.inf),
        "base_delay",
    ),
}


@pytest.mark.parametrize(("build", "field"), REPRODUCTIONS.values(), ids=REPRODUCTIONS)
def test_reproduction_fails_at_construction(build, field):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        build()
