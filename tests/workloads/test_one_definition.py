"""Each paper family is defined once, as its stream, and a spec is that
stream's exact ``to_spec()``.

The spec builders (``homogeneous_scenario``, ``heterogeneous_scenario``)
are their streams' ``to_spec()``, and a stream keeps the datacenters it
was built from, host sizing included, so a spec that goes through
``ScenarioChunks.from_spec`` comes back equal.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.cloud.faults import HostFailure
from repro.cloud.resilience import run_resilient
from repro.experiments.runner import run_point
from repro.schedulers import make_scheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.streaming import (
    ScenarioChunks,
    heterogeneous_stream,
    homogeneous_stream,
)
from repro.workloads.synthetic import DistributionSpec, SyntheticWorkloadBuilder
from repro.workloads.tracelike import tracelike_scenario
from repro.workloads.traces import load_scenario, save_scenario, scenario_to_dict

#: (builder, num_vms, num_cloudlets, num_datacenters, seed).  They cover
#: VM counts that do not divide evenly over the datacenters and a
#: datacenter holding >= 64 VMs, where the two families' host-storage
#: roundings (ceil for homogeneous, floor for heterogeneous) differ.
PINNED_SPECS = (
    (homogeneous_scenario, 127, 10, 2, 0),
    (homogeneous_scenario, 4, 7, 1, 3),
    (homogeneous_scenario, 300, 1000, 3, 5),
    (heterogeneous_scenario, 130, 50, 4, 3),
    (heterogeneous_scenario, 5, 9, 5, 1),
    (heterogeneous_scenario, 700, 2000, 4, 2016),
    (heterogeneous_scenario, 200, 2000, 4, 0),
)

#: SHA-256 of the seven specs' ``scenario_to_dict`` as sorted-key JSON,
#: recorded when each family was still written out twice.
PINNED_SPECS_DIGEST = "74af15fd55fb252fab0b630234ae3a07375ace057dab2edb16c3fc2d3b8440fb"


def _synthetic():
    return (
        SyntheticWorkloadBuilder(seed=1)
        .vms(6, mips=DistributionSpec("uniform", {"low": 500.0, "high": 4000.0}))
        .cloudlets(30, length=DistributionSpec("exponential", {"scale": 2000.0}))
        .datacenters(2)
        .build("synthetic-mix")
    )


class TestPaperSpecs:
    def test_seven_specs_match_their_recorded_digest(self):
        dicts = [scenario_to_dict(build(*args)) for build, *args in PINNED_SPECS]
        digest = hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_SPECS_DIGEST

    @pytest.mark.parametrize(
        ("scenario", "stream"),
        [
            (homogeneous_scenario, homogeneous_stream),
            (heterogeneous_scenario, heterogeneous_stream),
        ],
        ids=["homogeneous", "heterogeneous"],
    )
    @pytest.mark.parametrize(
        "size", [(130, 400, 4), (5, 9, 5), (300, 1000, 3)], ids=["130x400", "5x9", "300x1000"]
    )
    def test_scenario_is_its_streams_spec(self, scenario, stream, size):
        num_vms, num_cloudlets, num_datacenters = size
        expected = scenario(num_vms, num_cloudlets, num_datacenters, seed=3)
        for chunk_size in (7, 4096):
            got = stream(
                num_vms, num_cloudlets, num_datacenters, seed=3, chunk_size=chunk_size
            ).to_spec()
            assert got == expected

    def test_stream_pickles_with_its_datacenters(self):
        """Shard workers receive streams by pickle, frozen slotted
        datacenter specs included."""
        stream = heterogeneous_stream(130, 50, seed=3, chunk_size=16)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.datacenters == stream.datacenters
        assert clone.to_spec() == heterogeneous_scenario(130, 50, seed=3)

    def test_homogeneous_spec_holds_one_vm_and_one_cloudlet_object(self):
        spec = homogeneous_scenario(1000, 100_000)
        assert len({id(vm) for vm in spec.vms}) == 1
        assert len({id(cloudlet) for cloudlet in spec.cloudlets}) == 1


class TestFromSpecRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            _synthetic,
            lambda: tracelike_scenario(20, 100, seed=1),
            lambda: heterogeneous_scenario(130, 50, seed=3),
        ],
        ids=["synthetic", "tracelike", "heterogeneous"],
    )
    def test_from_spec_to_spec_is_the_spec(self, make):
        spec = make()
        assert ScenarioChunks.from_spec(spec).to_spec() == spec
        assert ScenarioChunks.from_spec(spec, chunk_size=7).to_spec() == spec

    def test_saved_and_loaded_spec_round_trips(self, tmp_path):
        spec = load_scenario(save_scenario(_synthetic(), tmp_path / "mix.json"))
        assert ScenarioChunks.from_spec(spec).to_spec() == spec

    def test_bare_columns_get_default_hosts(self):
        spec = _synthetic()
        stream = ScenarioChunks.from_arrays(spec.arrays(), name=spec.name, seed=spec.seed)
        hosts = stream.to_spec().datacenters
        assert [d.characteristics for d in hosts] == [
            d.characteristics for d in spec.datacenters
        ]
        assert {(d.host_pes, d.host_mips) for d in hosts} == {(32, 4000.0)}

    def test_datacenters_stay_out_of_the_stream_digest(self):
        spec = _synthetic()
        bare = ScenarioChunks.from_arrays(spec.arrays(), name=spec.name, seed=spec.seed)
        assert ScenarioChunks.from_spec(spec).digest() == bare.digest()


class TestHostSizingSurvivesTheStream:
    def test_host_crash_on_a_streams_spec_matches_the_scenario(self):
        """A host crash takes down every VM on the host, so the result
        depends on host sizing; the stream's spec used to get default
        hosts and read 120.56 against 192.56."""
        plan = [HostFailure(5, 1.0)]
        via_stream = run_resilient(
            heterogeneous_stream(130, 400, seed=3).to_spec(),
            make_scheduler("basetest"), plan, seed=0,
        )
        direct = run_resilient(
            heterogeneous_scenario(130, 400, seed=3),
            make_scheduler("basetest"), plan, seed=0,
        )
        assert via_stream.makespan == direct.makespan == pytest.approx(192.5598, abs=1e-4)
        assert via_stream.finish_times.tobytes() == direct.finish_times.tobytes()

    def test_des_run_of_a_spec_born_stream_keeps_fast_hosts(self):
        """VMs faster than the default 4000-MIPS host PEs used to be
        rejected by the DES once the spec went through a stream."""
        spec = (
            SyntheticWorkloadBuilder(seed=1)
            .vms(6, mips=DistributionSpec("uniform", {"low": 4500.0, "high": 6000.0}))
            .cloudlets(30)
            .build()
        )
        own = run_point(spec, make_scheduler("basetest"), seed=0, engine="des")
        born = run_point(
            ScenarioChunks.from_spec(spec), make_scheduler("basetest"), seed=0, engine="des"
        )
        assert born.makespan == own.makespan == pytest.approx(0.2741, abs=1e-4)
