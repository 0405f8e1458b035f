"""Metamorphic and cross-cutting scheduler properties.

Checks that must hold for *every* registered batch scheduler, plus
metamorphic relations (how outputs must transform when inputs are scaled)
that catch unit mistakes no example-based test would.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from repro.cloud.characteristics import DatacenterCharacteristics
from repro.cloud.fast import FastSimulation
from repro.schedulers import SCHEDULER_REGISTRY, make_scheduler
from repro.schedulers.base import SchedulingContext
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.spec import CloudletSpec, DatacenterSpec, VmSpec

LIGHT_KWARGS = {
    "antcolony": {"num_ants": 4, "max_iterations": 2},
    "pso": {"num_particles": 6, "max_iterations": 5},
    "ga": {"population_size": 8, "generations": 5},
}

ALL_NAMES = sorted(SCHEDULER_REGISTRY)


def light(name):
    return make_scheduler(name, **LIGHT_KWARGS.get(name, {}))


class TestEverySchedulerUniversalProperties:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_deterministic_given_seed(self, name, small_hetero):
        a = light(name).schedule_checked(
            SchedulingContext.from_scenario(small_hetero, seed=3)
        )
        b = light(name).schedule_checked(
            SchedulingContext.from_scenario(small_hetero, seed=3)
        )
        np.testing.assert_array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_handles_single_cloudlet(self, name):
        scenario = heterogeneous_scenario(4, 1, num_datacenters=2, seed=0)
        result = light(name).schedule_checked(
            SchedulingContext.from_scenario(scenario, seed=0)
        )
        assert result.assignment.shape == (1,)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_handles_single_vm(self, name):
        scenario = heterogeneous_scenario(1, 8, num_datacenters=1, seed=0)
        result = light(name).schedule_checked(
            SchedulingContext.from_scenario(scenario, seed=0)
        )
        np.testing.assert_array_equal(result.assignment, np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_end_to_end_through_fast_engine(self, name, small_hetero):
        result = FastSimulation(small_hetero, light(name), seed=0).run()
        assert result.makespan > 0
        assert np.isfinite(result.total_cost)


class TestMetamorphicRelations:
    def test_scaling_lengths_scales_makespan_linearly(self):
        """Doubling every cloudlet length must exactly double the makespan
        for schedulers whose decisions are scale-invariant."""
        base = heterogeneous_scenario(8, 50, seed=5)
        doubled = dataclasses.replace(
            base,
            cloudlets=tuple(
                dataclasses.replace(c, length=c.length * 2) for c in base.cloudlets
            ),
        )
        for name in ("basetest", "greedy-mct", "maxmin", "minmin"):
            r1 = FastSimulation(base, light(name), seed=0).run()
            r2 = FastSimulation(doubled, light(name), seed=0).run()
            assert r2.makespan == pytest.approx(2 * r1.makespan), name
            np.testing.assert_array_equal(r1.assignment, r2.assignment)

    def test_scaling_mips_inverse_scales_makespan(self):
        base = heterogeneous_scenario(8, 50, seed=5)
        faster = dataclasses.replace(
            base,
            vms=tuple(dataclasses.replace(v, mips=v.mips * 2) for v in base.vms),
        )
        r1 = FastSimulation(base, light("greedy-mct"), seed=0).run()
        r2 = FastSimulation(faster, light("greedy-mct"), seed=0).run()
        assert r2.makespan == pytest.approx(r1.makespan / 2)

    def test_permuting_identical_vms_is_irrelevant_to_makespan(self):
        """On a fleet of identical VMs every scheduler's makespan must be
        invariant under VM relabelling (loads are exchangeable)."""
        base = heterogeneous_scenario(6, 60, seed=7)
        uniform = dataclasses.replace(
            base,
            vms=tuple(dataclasses.replace(v, mips=1500.0) for v in base.vms),
        )
        for name in ("basetest", "honeybee", "rbs"):
            result = FastSimulation(uniform, light(name), seed=0).run()
            counts = np.bincount(result.assignment, minlength=6)
            work = np.zeros(6)
            np.add.at(work, result.assignment, uniform.arrays().cloudlet_length)
            assert result.makespan == pytest.approx(work.max() / 1500.0), name

    def test_adding_dominated_vm_never_helps_greedy(self):
        """Appending a strictly slower VM cannot worsen greedy's makespan
        (it can simply ignore it)."""
        base = heterogeneous_scenario(6, 60, seed=9)
        slower = dataclasses.replace(
            base,
            vms=base.vms + (dataclasses.replace(base.vms[0], mips=1.0),),
            vm_datacenter=base.vm_datacenter + (0,),
        )
        r_base = FastSimulation(base, light("greedy-mct"), seed=0).run()
        r_more = FastSimulation(slower, light("greedy-mct"), seed=0).run()
        assert r_more.makespan <= r_base.makespan + 1e-9

    def test_duplicate_cloudlet_batch_doubles_total_cost_for_round_robin(self):
        base = heterogeneous_scenario(4, 40, seed=3)
        doubled = dataclasses.replace(
            base, cloudlets=base.cloudlets + base.cloudlets
        )
        r1 = FastSimulation(base, light("basetest"), seed=0).run()
        r2 = FastSimulation(doubled, light("basetest"), seed=0).run()
        # Same cyclic pattern repeated: each cloudlet lands on the same VM
        # type distribution, so cost exactly doubles.
        assert r2.total_cost == pytest.approx(2 * r1.total_cost)


class TestExtremeBatchShapes:
    def test_one_giant_among_dwarfs(self):
        cloudlets = tuple(
            CloudletSpec(length=100.0) for _ in range(40)
        ) + (CloudletSpec(length=1e6),)
        base = heterogeneous_scenario(8, 41, seed=2)
        scenario = dataclasses.replace(base, cloudlets=cloudlets)
        greedy = FastSimulation(scenario, light("greedy-mct"), seed=0).run()
        arr = scenario.arrays()
        # Greedy must put the giant on the fastest VM.
        giant_vm = greedy.assignment[-1]
        assert arr.vm_mips[giant_vm] == arr.vm_mips.max()
        # Makespan is dominated by the giant.
        assert greedy.makespan == pytest.approx(1e6 / arr.vm_mips.max(), rel=0.01)

    def test_more_vms_than_cloudlets_all_schedulers(self):
        scenario = heterogeneous_scenario(30, 5, num_datacenters=3, seed=1)
        for name in ALL_NAMES:
            result = FastSimulation(scenario, light(name), seed=0).run()
            assert result.makespan > 0, name


# -- bad numeric arguments ---------------------------------------------------

#: Every value a numeric parameter must either reject by name or survive.
BAD_VALUES = (math.nan, math.inf, -math.inf, 0, -1, 1e308, True, 2.5)
BAD_IDS = ("nan", "inf", "-inf", "0", "-1", "1e308", "True", "2.5")
#: Values that are no number to compute with; they must never run.
NOT_NUMBERS = ("nan", "inf", "-inf", "True")

#: ``(scheduler, parameter, integer)`` for every numeric constructor
#: parameter: the ``int``/``float`` defaults plus the two integers whose
#: default is ``None``.
NUMERIC_PARAMS = [
    (name, param.name, type(param.default) is not float)
    for name in ALL_NAMES
    for param in inspect.signature(SCHEDULER_REGISTRY[name]).parameters.values()
    if type(param.default) in (int, float) or param.name in ("patience", "num_groups")
]

#: ``(class, field, integer)`` for the numeric fields of the scenario
#: value objects (annotations are strings under postponed evaluation).
SPEC_FIELDS = [
    (cls, f.name, f.type == "int")
    for cls in (VmSpec, CloudletSpec, DatacenterSpec, DatacenterCharacteristics)
    for f in dataclasses.fields(cls)
    if f.type in ("int", "float")
]


def _violations(param, integer, build, run, sound):
    """The bad values that are neither rejected by name nor harmless.

    A value is rejected by name when building or running raises
    ``ValueError`` naming ``param``.  Otherwise it must be a number (not
    NaN, an infinity or a bool, and integral for an integer parameter)
    and the run must satisfy ``sound``.
    """
    found = []
    for label, value in zip(BAD_IDS, BAD_VALUES):
        try:
            result = run(build(value))
        except ValueError as exc:
            if re.search(rf"\b{re.escape(param)}\b", str(exc)) is None:
                found.append(f"{param}={label}: unnamed ValueError: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other failure is a finding
            found.append(f"{param}={label}: {type(exc).__name__}: {exc}")
        else:
            if label in NOT_NUMBERS or (integer and label == "2.5"):
                found.append(f"{param}={label}: accepted and ran")
            elif not sound(result):
                found.append(
                    f"{param}={label}: ran to makespan {result.makespan}, "
                    f"imbalance {result.time_imbalance}, cost {result.total_cost}"
                )
    return found


@pytest.fixture(scope="module")
def grid_scenario():
    return heterogeneous_scenario(4, 12, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestBadNumericArguments:
    """Each numeric argument is rejected by name at construction, or is harmless.

    NaN used to pass the hand-written comparisons and bools and fractions
    ``>= 1``: 151 of the 408 scheduler cases ran with a non-number or
    failed without naming the parameter (``antcolony(alpha=nan)`` put
    every cloudlet on one VM).
    """

    def test_grid_covers_every_numeric_parameter(self):
        assert len(NUMERIC_PARAMS) == 51
        assert len(SPEC_FIELDS) == 19

    @pytest.mark.parametrize(
        ("name", "param", "integer"),
        NUMERIC_PARAMS,
        ids=[f"{name}-{param}" for name, param, _ in NUMERIC_PARAMS],
    )
    def test_scheduler_parameter(self, name, param, integer, grid_scenario):
        """A rejection may also come at schedule time (ACO's ``max_matrix_cells=0``)."""

        def finite(result):
            return all(
                math.isfinite(v)
                for v in (result.makespan, result.time_imbalance, result.total_cost)
            )

        found = _violations(
            param,
            integer,
            lambda value: make_scheduler(name, **{param: value}),
            lambda scheduler: FastSimulation(grid_scenario, scheduler, seed=0).run(),
            finite,
        )
        assert not found, found

    @pytest.mark.parametrize(
        ("cls", "field", "integer"),
        SPEC_FIELDS,
        ids=[f"{cls.__name__}-{field}" for cls, field, _ in SPEC_FIELDS],
    )
    def test_spec_field(self, cls, field, integer, grid_scenario):
        """The same grid over the scenario value objects.

        The value replaces one field of VM 0, cloudlet 0 or datacenter 0
        and a round-robin run must report a finite makespan and
        imbalance.  Its cost may overflow to ``+inf`` (a price near 1e308
        times a VM's RAM is past float range) but never reads NaN.
        """
        scenario = grid_scenario
        dc = scenario.datacenters[0]
        base = {
            VmSpec: scenario.vms[0],
            CloudletSpec: scenario.cloudlets[0],
            DatacenterSpec: dc,
            DatacenterCharacteristics: dc.characteristics,
        }[cls]

        def run(spec):
            if cls is VmSpec:
                changed = {"vms": (spec,) + scenario.vms[1:]}
            elif cls is CloudletSpec:
                changed = {"cloudlets": (spec,) + scenario.cloudlets[1:]}
            else:
                if cls is DatacenterCharacteristics:
                    spec = dataclasses.replace(dc, characteristics=spec)
                changed = {"datacenters": (spec,) + scenario.datacenters[1:]}
            variant = dataclasses.replace(scenario, **changed)
            return FastSimulation(variant, make_scheduler("basetest"), seed=0).run()

        def sound(result):
            return (
                math.isfinite(result.makespan)
                and math.isfinite(result.time_imbalance)
                and result.total_cost >= 0
            )

        found = _violations(
            field,
            integer,
            lambda value: dataclasses.replace(base, **{field: value}),
            run,
            sound,
        )
        assert not found, found
