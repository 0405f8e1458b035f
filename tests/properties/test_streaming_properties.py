"""Property-based correctness suite for the streaming scheduling path.

The invariants here are the paper-scale path's whole safety case:

* **Generator equality** — chunked scenario generation reproduces the
  monolithic generators' columns bit-for-bit, for any chunk size.
* **Assignment validity** — every streamed assignment lands in
  ``[0, num_vms)`` and covers each cloudlet exactly once, so million-
  instruction totals (MI) are conserved.
* **Chunked == batch == oracle** — every streaming scheduler's chunked
  and batch assignments equal its scalar reference oracle exactly, on
  float as well as dyadic scenarios, and both execution modes of
  :class:`~repro.cloud.fast.StreamingSimulation` reproduce
  :class:`~repro.cloud.fast.FastSimulation`'s metrics exactly on the
  dyadic scenario domain (see ``strategies.py`` for why exactness is the
  right bar there).
* **No state leakage** — a reused scheduler instance equals a fresh one,
  for every registry scheduler and every streaming scheduler.

All properties run derandomised (fixed example set per test) so CI
failures reproduce locally byte-for-byte.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.fast import FastSimulation, StreamingSimulation
from repro.core.rng import spawn_rng
from repro.schedulers import SCHEDULER_REGISTRY, SchedulingContext, make_scheduler
from repro.schedulers.streaming import (
    STREAMING_SCHEDULERS,
    make_streaming_scheduler,
)
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario
from repro.workloads.streaming import (
    ScenarioChunks,
    heterogeneous_stream,
    homogeneous_stream,
)

from tests.properties.strategies import (
    chunk_sizes,
    dyadic_scenarios,
    family_points,
    float_scenarios,
)
from tests.schedulers.oracles import ORACLES, honeybee_oracle

COMMON = settings(max_examples=25, deadline=None, derandomize=True)

#: per-cloudlet columns a chunk carries (VM/DC columns are shared refs).
CLOUDLET_COLUMNS = (
    "cloudlet_length",
    "cloudlet_pes",
    "cloudlet_file_size",
    "cloudlet_output_size",
)

#: metaheuristics need light parameters to keep property runs fast.
LIGHT_KWARGS: dict[str, dict] = {
    "antcolony": {"num_ants": 3, "max_iterations": 2},
    "pso": {"num_particles": 4, "max_iterations": 3},
    "ga": {"population_size": 6, "generations": 3},
    "annealing": {"iterations": 30},
    "gsa": {"num_agents": 4, "max_iterations": 3},
    "psogsa": {"num_particles": 4, "max_iterations": 3},
    "cuckoo-sos": {"ecosystem_size": 4, "max_iterations": 2},
}


def stream_assignment(stream: ScenarioChunks, name: str, seed: int) -> np.ndarray:
    """Run one streaming scheduler over all chunks; concatenated result."""
    scheduler = make_streaming_scheduler(name)
    rng = spawn_rng(seed, f"scheduler/{stream.name}")
    assigner = scheduler.open(stream, rng)
    return np.concatenate(
        [np.asarray(assigner.assign(chunk, offset)) for offset, chunk in stream]
    )


# -- generator equality -------------------------------------------------------


@COMMON
@given(point=family_points(), chunk_size=chunk_sizes())
@pytest.mark.parametrize("family", ["homogeneous", "heterogeneous"])
def test_chunked_generation_is_bit_equal(family, point, chunk_size):
    num_vms, num_cloudlets, seed = point
    if family == "homogeneous":
        spec = homogeneous_scenario(num_vms, num_cloudlets, seed=seed)
        stream = homogeneous_stream(num_vms, num_cloudlets, seed=seed, chunk_size=chunk_size)
    else:
        spec = heterogeneous_scenario(num_vms, num_cloudlets, seed=seed)
        stream = heterogeneous_stream(num_vms, num_cloudlets, seed=seed, chunk_size=chunk_size)
    arrays = spec.arrays()
    chunks = list(stream)
    assert sum(c.num_cloudlets for _, c in chunks) == num_cloudlets
    for column in CLOUDLET_COLUMNS:
        streamed = np.concatenate([getattr(c, column) for _, c in chunks])
        assert streamed.tobytes() == getattr(arrays, column).tobytes(), column
    # VM/DC columns are identical on every chunk (shared references).
    for column in ("vm_mips", "vm_pes", "vm_ram", "vm_bw", "vm_size", "vm_datacenter",
                   "dc_cost_per_mem", "dc_cost_per_storage", "dc_cost_per_bw",
                   "dc_cost_per_cpu"):
        assert getattr(chunks[0][1], column).tobytes() == getattr(arrays, column).tobytes(), column


@COMMON
@given(point=family_points(max_vms=8, max_cloudlets=90))
def test_digest_is_chunk_size_invariant(point):
    num_vms, num_cloudlets, seed = point
    digests = {
        heterogeneous_stream(num_vms, num_cloudlets, seed=seed, chunk_size=cs).digest()
        for cs in (1, 7, 64, 10_000)
    }
    assert len(digests) == 1
    # The heterogeneous columns are seed-dependent, so a different seed
    # must change the content digest.  (The homogeneous family would not:
    # its columns are constant tables, and the digest hashes content.)
    other = heterogeneous_stream(num_vms, num_cloudlets, seed=seed + 1, chunk_size=7)
    assert other.digest() not in digests


# -- assignment validity + MI conservation ------------------------------------


@COMMON
@given(spec=dyadic_scenarios(), chunk_size=chunk_sizes())
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_streamed_assignment_valid_and_mi_conserved(name, spec, chunk_size):
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
    assignment = stream_assignment(stream, name, seed=spec.seed)
    assert assignment.shape == (spec.num_cloudlets,)
    assert np.issubdtype(assignment.dtype, np.integer)
    assert assignment.min() >= 0
    assert assignment.max() < spec.num_vms
    # MI conservation: folding lengths through the assignment loses nothing.
    lengths = spec.arrays().cloudlet_length
    per_vm_mi = np.zeros(spec.num_vms)
    np.add.at(per_vm_mi, assignment, lengths)
    assert per_vm_mi.sum() == pytest.approx(lengths.sum(), rel=0, abs=0)


# -- chunked == monolithic ----------------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    spec=st.one_of(dyadic_scenarios(), float_scenarios()),
    chunk_size=chunk_sizes(),
)
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_streaming_assignment_matches_batch_scheduler(name, spec, chunk_size):
    """Chunked and batch decisions both equal the scalar reference oracle.

    The batch ``schedule()`` is the single-chunk pass through the same
    class, so comparing it with the chunked run alone would compare the
    class with itself; the oracles in ``tests/schedulers/oracles.py``
    are independent per-cloudlet loops (RR's closed form, RBS's
    monolithic draw).  Float scenarios take the comparison off the
    exactly representable domain.
    """
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
    streamed = stream_assignment(stream, name, seed=spec.seed)
    context = SchedulingContext.from_scenario(spec, seed=spec.seed)
    batch = make_scheduler(name).schedule_checked(context)
    expected, info = ORACLES[name](SchedulingContext.from_scenario(spec, seed=spec.seed))
    assert np.array_equal(streamed, expected)
    assert np.array_equal(batch.assignment, expected)
    assert batch.info == info


#: HBO ``(load_balance_factor, scout_time_bias)`` points: the default, a cap
#: so low that every datacenter saturates (the fall-back-to-cheapest
#: branch), no spilling at all, and completion-biased scouts (argmin, not
#: heap).
HBO_PARAMS = ((0.5, 0.0), (0.1, 0.0), (1.0, 0.0), (0.5, 1.0))


@COMMON
@given(
    spec=st.one_of(dyadic_scenarios(), float_scenarios()),
    chunk_size=chunk_sizes(),
)
@pytest.mark.parametrize("load_balance_factor, scout_time_bias", HBO_PARAMS)
def test_honeybee_parameters_match_oracle(
    load_balance_factor, scout_time_bias, spec, chunk_size
):
    """Chunked, sharded and batch HBO equal the oracle off the defaults."""
    kwargs = {
        "load_balance_factor": load_balance_factor,
        "scout_time_bias": scout_time_bias,
    }
    expected, info = honeybee_oracle(
        SchedulingContext.from_scenario(spec, seed=spec.seed), **kwargs
    )
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
    assigner = make_streaming_scheduler("honeybee", **kwargs).open(
        stream, spawn_rng(spec.seed, f"scheduler/{stream.name}")
    )
    streamed = np.concatenate(
        [np.asarray(assigner.assign(chunk, offset)) for offset, chunk in stream]
    )
    assert np.array_equal(streamed, expected)
    assert assigner.info() == info
    sharded = StreamingSimulation(
        stream,
        make_streaming_scheduler("honeybee", **kwargs),
        seed=spec.seed,
        collect=True,
        shards=3,
        shard_parallel=False,
    ).run()
    assert np.array_equal(sharded.assignment, expected)
    batch = make_scheduler("honeybee", **kwargs).schedule_checked(
        SchedulingContext.from_scenario(spec, seed=spec.seed)
    )
    assert np.array_equal(batch.assignment, expected)
    assert batch.info == info


@pytest.fixture(scope="module")
def hetero_bench_stream():
    """The benchmark's ``hetero`` stream shape and its HBO oracle decision."""
    stream = heterogeneous_stream(1000, 32768, chunk_size=16384, seed=1)
    context = SchedulingContext.from_scenario(stream.to_spec(), seed=1)
    return stream, honeybee_oracle(context)


@pytest.mark.parametrize("shards", [1, 2])
def test_honeybee_matches_oracle_at_benchmark_shape(hetero_bench_stream, shards):
    """250-VM datacenters and group boundaries inside chunks, which the
    small hypothesis fleets never reach."""
    stream, (expected, info) = hetero_bench_stream
    result = StreamingSimulation(
        stream,
        make_streaming_scheduler("honeybee"),
        seed=1,
        collect=True,
        shards=shards,
        shard_parallel=False,
    ).run()
    assert np.array_equal(result.assignment, expected)
    assert {key: result.info[key] for key in info} == info


@COMMON
@given(spec=dyadic_scenarios(), chunk_size=chunk_sizes())
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_streaming_metrics_match_in_memory_bit_for_bit(name, spec, chunk_size):
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
    memory = FastSimulation(spec, make_scheduler(name), seed=spec.seed).run()
    bounded = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=spec.seed
    ).run()
    collected = StreamingSimulation(
        stream, make_streaming_scheduler(name), seed=spec.seed, collect=True
    ).run()
    # Dyadic domain: no float reassociation slack, equality must be exact.
    for field in ("makespan", "time_imbalance", "total_cost"):
        assert getattr(bounded, field) == getattr(memory, field), field
        assert getattr(collected, field) == getattr(memory, field), field
    for field in ("assignment", "start_times", "finish_times", "exec_times", "costs"):
        assert getattr(collected, field).tobytes() == getattr(memory, field).tobytes(), field


@COMMON
@given(spec=dyadic_scenarios(max_cloudlets=80))
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_bounded_metrics_are_chunk_size_invariant(name, spec):
    reference = None
    for chunk_size in (1, 7, 64, 10_000):
        stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
        result = StreamingSimulation(
            stream, make_streaming_scheduler(name), seed=spec.seed
        ).run()
        observed = (
            result.makespan,
            result.time_imbalance,
            result.total_cost,
            result.vm_finish_times.tobytes(),
            result.vm_costs.tobytes(),
        )
        if reference is None:
            reference = observed
        else:
            assert observed == reference, chunk_size


# -- bounded state (tentpole: O(num_vms + chunk_size) assigners) --------------


def _reachable_container_lengths(root: object) -> dict[str, int]:
    """Length of every container reachable from ``root``, keyed by path.

    Walks instance ``__dict__``/``__slots__`` attributes, dict values,
    list/tuple items, ndarray sizes — and the closure cells of the
    object's methods, because inner-class assigners keep cross-chunk
    state in closures rather than attributes (the removed O(n) RBS
    pre-draw lived in one).  Cycle-safe via an id-visited set.
    """
    lengths: dict[str, int] = {}
    seen: set[int] = set()

    def visit(obj: object, path: str) -> None:
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            lengths[path] = int(obj.size)
        elif isinstance(obj, (list, tuple)):
            lengths[path] = len(obj)
            for i, item in enumerate(obj):
                visit(item, f"{path}[{i}]")
        elif isinstance(obj, dict):
            lengths[path] = len(obj)
            for key, value in obj.items():
                visit(value, f"{path}[{key!r}]")
        elif not isinstance(obj, (str, bytes, int, float, bool, type(None))):
            for attr, value in getattr(obj, "__dict__", {}).items():
                visit(value, f"{path}.{attr}")
            for cls in type(obj).__mro__:
                for attr in getattr(cls, "__slots__", ()):
                    if hasattr(obj, attr):
                        visit(getattr(obj, attr), f"{path}.{attr}")
            for name, func in inspect.getmembers(type(obj), inspect.isfunction):
                for cell in func.__closure__ or ():
                    visit(cell.cell_contents, f"{path}.{name}<closure>")

    visit(root, "assigner")
    return lengths


@pytest.mark.parametrize("family", ["homogeneous", "heterogeneous"])
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_assigner_state_stays_bounded(name, family):
    """No assigner container may grow with the cloudlets processed.

    Catches the exact O(n) regression class this path was cured of (the
    RBS full-horizon sample pre-draw, HBO's retained assignment buffer):
    with ``n = 50 × chunk_size``, any state scaling with processed
    cloudlets blows far past the O(num_vms + chunk_size) budget below —
    checked after *every* chunk, so growth is caught at the first chunk
    that exceeds it, not just at the end.
    """
    num_vms, chunk_size = 10, 64
    num_cloudlets = 50 * chunk_size
    make = homogeneous_stream if family == "homogeneous" else heterogeneous_stream
    stream = make(num_vms, num_cloudlets, seed=11, chunk_size=chunk_size)
    scheduler = make_streaming_scheduler(name)
    rng = spawn_rng(11, f"scheduler/{stream.name}")
    assigner = scheduler.open(stream, rng)
    budget = 2 * chunk_size + 8 * num_vms + 64
    assert budget < num_cloudlets / 10
    for offset, chunk in stream:
        assigner.assign(chunk, offset)
        oversized = {
            path: length
            for path, length in _reachable_container_lengths(assigner).items()
            if length > budget
        }
        assert not oversized, oversized


# -- no state leakage (satellite: hbo.py / rbs.py accumulator audit) ----------


@COMMON
@given(spec=dyadic_scenarios(max_vms=8, max_cloudlets=60))
@pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
def test_reused_scheduler_instance_equals_fresh(name, spec):
    """schedule() must not leak accumulator state between calls.

    Pins the audit of hbo.py/rbs.py (and every other registry scheduler):
    running the same instance twice on identical contexts must reproduce
    the first assignment, and match a fresh instance.
    """
    kwargs = LIGHT_KWARGS.get(name, {})
    reused = make_scheduler(name, **kwargs)
    first = reused.schedule_checked(
        SchedulingContext.from_scenario(spec, seed=spec.seed)
    ).assignment
    second = reused.schedule_checked(
        SchedulingContext.from_scenario(spec, seed=spec.seed)
    ).assignment
    fresh = make_scheduler(name, **kwargs).schedule_checked(
        SchedulingContext.from_scenario(spec, seed=spec.seed)
    ).assignment
    assert np.array_equal(np.asarray(first), np.asarray(second))
    assert np.array_equal(np.asarray(first), np.asarray(fresh))


@COMMON
@given(spec=dyadic_scenarios(max_cloudlets=60), chunk_size=chunk_sizes())
@pytest.mark.parametrize("name", sorted(STREAMING_SCHEDULERS))
def test_streaming_open_is_stateless(name, spec, chunk_size):
    """open() must hand out fresh per-run state every time."""
    stream = ScenarioChunks.from_spec(spec, chunk_size=chunk_size)
    scheduler = make_streaming_scheduler(name)

    def run_once() -> np.ndarray:
        rng = spawn_rng(spec.seed, f"scheduler/{stream.name}")
        assigner = scheduler.open(stream, rng)
        return np.concatenate(
            [np.asarray(assigner.assign(chunk, offset)) for offset, chunk in stream]
        )

    assert np.array_equal(run_once(), run_once())
