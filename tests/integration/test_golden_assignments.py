"""Golden-seed assignment pins for the metaheuristic schedulers.

These strings were captured from the pre-``repro.optim`` implementations
(one digit per cloudlet: its assigned VM index).  They pin the *decisions*,
not just the metrics, so any change to RNG draw order or float arithmetic
in the ported inner loops shows up immediately.  The ``basetest``,
``greedy-mct``, ``honeybee`` and ``rbs`` rows were captured from the
separate batch implementations those schedulers had before their batch
``schedule()`` became a single-chunk streaming pass.

With telemetry on, the seven optimizer schedulers also pin what a run
reports: every ``info`` value (as a digest, leaving out the convergence
trace's wall-clock seconds), the span paths and the counter names.

If an intentional algorithmic change shifts these, regenerate the pins and
document the before/after metrics in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs.telemetry import TELEMETRY
from repro.schedulers import make_scheduler
from repro.schedulers.aco import AntColonyScheduler
from repro.schedulers.base import SchedulingContext
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario

# Light configs keep each cell fast while still exercising multiple
# iterations of every inner loop.
LIGHT_KWARGS = {
    "antcolony": {"num_ants": 5, "max_iterations": 2},
    "pso": {"num_particles": 6, "max_iterations": 5},
    "ga": {"population_size": 8, "generations": 5},
    "annealing": {"iterations": 500},
    "hybrid": {},
    "gsa": {"num_agents": 6, "max_iterations": 5},
    "psogsa": {"num_particles": 6, "max_iterations": 5},
    "cuckoo-sos": {"ecosystem_size": 6, "max_iterations": 4},
}

GOLDEN_ASSIGNMENTS = {
    ("hetero", "annealing", 7): "41669466376313483616912505673039074143246013260942794742698463545287342165480145",
    ("hetero", "annealing", 123): "62414565499793106781611342676604234761840154495203969205278847978567897947459771",
    ("hetero", "antcolony", 7): "47569663633437566567232043937466134944370579523657460506109959569936445534935305",
    ("hetero", "antcolony", 123): "63674524459436143657195693730475663668251305233376369943565304065377549740456450",
    ("hetero", "basetest", 7): "01234567890123456789012345678901234567890123456789012345678901234567890123456789",
    ("hetero", "basetest", 123): "01234567890123456789012345678901234567890123456789012345678901234567890123456789",
    ("hetero", "cuckoo-sos", 7): "29023649767479248693365472565861916036990552160540230474613018907991552571875954",
    ("hetero", "cuckoo-sos", 123): "06673641566210566625009990697843893171755935428406792494907167097916595049839459",
    ("hetero", "ga", 7): "77830975655770718688195557995448907190063776017725795523964318235363037515862525",
    ("hetero", "ga", 123): "76873994235362394023011844943668163708794663956520337637946260540148454121817263",
    ("hetero", "greedy-mct", 7): "36543976430596127088659263409361853792804066154820393742506381940362517408237569",
    ("hetero", "greedy-mct", 123): "36543976430596127088659263409361853792804066154820393742506381940362517408237569",
    ("hetero", "gsa", 7): "94245454235037246191278632360174214835935655388763630355812881067331328266037640",
    ("hetero", "gsa", 123): "10275519010866413449718270756705751786327755179735934673297773638711377333285604",
    ("hetero", "honeybee", 7): "59595915951951599551048004844044440404481595959199515955951544480044404480040040",
    ("hetero", "honeybee", 123): "59595915951951599551048004844044440404481595959199515955951544480044404480040040",
    ("hetero", "hybrid", 7): "05149312433395643753653635175660349977473489253709577071950301395657067205466656",
    ("hetero", "hybrid", 123): "96999643595649067091546256369416459306364458566143081302173201694354762440710325",
    ("hetero", "pso", 7): "57530053908800915988614556925474137100063776017728133224604518733676451435866725",
    ("hetero", "pso", 123): "23191138963644096071257706475433731262369895691132301795857890641635719989621216",
    ("hetero", "psogsa", 7): "76056663332034446181148833543173436625836655445584636446506983747400309165039860",
    ("hetero", "psogsa", 123): "10566549333726618559606060755935651604479673099715933643254173539651474144885634",
    ("hetero", "rbs", 7): "34016275890134256789607384512901234567890123674589031246578934051826790346128579",
    ("hetero", "rbs", 123): "30124567890612384579013425678901342567890681273459012364578980132456790836791245",
    ("homog", "annealing", 7): "0123456701234567012345670123456701234567",
    ("homog", "annealing", 123): "0123456701234567012345670123456701234567",
    ("homog", "antcolony", 7): "7023473631462520405274260555776347147052",
    ("homog", "antcolony", 123): "7503406216264421000362502147556451253115",
    ("homog", "basetest", 7): "0123456701234567012345670123456701234567",
    ("homog", "basetest", 123): "0123456701234567012345670123456701234567",
    ("homog", "cuckoo-sos", 7): "6605650436414447537055162704762107311270",
    ("homog", "cuckoo-sos", 123): "1102173642114024373406337603751452245200",
    ("homog", "ga", 7): "0123456701234567012345670123456701234567",
    ("homog", "ga", 123): "0123456701234567012345670123456701234567",
    ("homog", "greedy-mct", 7): "0123456701234567012345670123456701234567",
    ("homog", "greedy-mct", 123): "0123456701234567012345670123456701234567",
    ("homog", "gsa", 7): "2214456750616473702376250661223063314275",
    ("homog", "gsa", 123): "2633245550254315143676542431527106732406",
    ("homog", "honeybee", 7): "0246024602460246024613571357135713571357",
    ("homog", "honeybee", 123): "0246024602460246024613571357135713571357",
    ("homog", "hybrid", 7): "0123456701234567012345670123456701234567",
    ("homog", "hybrid", 123): "0123456701234567012345670123456701234567",
    ("homog", "pso", 7): "0276501424413307477165206215742021734660",
    ("homog", "pso", 123): "2104271302113024373476277603377452245604",
    ("homog", "psogsa", 7): "2104446750616473702376250761223163314273",
    ("homog", "psogsa", 123): "2613245550254305043776542431627106732406",
    ("homog", "rbs", 7): "0612734545012637234501674501236760123457",
    ("homog", "rbs", 123): "4016723502641375450123670123456701243567",
}

#: optimizer scheduler -> (span paths, counter names) of one run, telemetry on.
OPTIMIZER_TELEMETRY = {
    "antcolony": (
        ["aco.schedule", "aco.schedule/optim.run", "aco.schedule/optim.run/aco.construct",
         "aco.schedule/optim.run/aco.pheromone_update"],
        ["kernel.rows_memoised", "kernel.rows_requested", "optim.evaluations",
         "optim.iterations"],
    ),
    "annealing": (
        ["annealing.anneal", "annealing.anneal/optim.run"],
        ["kernel.delta_committed", "kernel.delta_proposed", "kernel.delta_rejected",
         "kernel.rows_memoised", "kernel.rows_requested", "optim.evaluations",
         "optim.iterations"],
    ),
    "cuckoo-sos": (
        ["optim.run", "optim.run/cuckoo_sos.commensalism", "optim.run/cuckoo_sos.cuckoo",
         "optim.run/cuckoo_sos.mutualism", "optim.run/cuckoo_sos.parasitism"],
        ["kernel.evaluations", "optim.evaluations", "optim.iterations"],
    ),
    "ga": (
        ["optim.run", "optim.run/ga.fitness", "optim.run/ga.variation"],
        ["kernel.evaluations", "optim.evaluations", "optim.iterations"],
    ),
    "gsa": (
        ["optim.run", "optim.run/gsa.fitness", "optim.run/gsa.position_update"],
        ["kernel.evaluations", "optim.evaluations", "optim.iterations"],
    ),
    "pso": (
        ["optim.run", "optim.run/pso.fitness", "optim.run/pso.position_update"],
        ["kernel.evaluations", "optim.evaluations", "optim.iterations"],
    ),
    "psogsa": (
        ["optim.run", "optim.run/psogsa.fitness", "optim.run/psogsa.position_update"],
        ["kernel.evaluations", "optim.evaluations", "optim.iterations"],
    ),
}

#: SHA-256 prefix of each optimizer run's ``info`` (see :func:`_info_digest`).
GOLDEN_INFO = {
    ("hetero", "annealing", 7): "561c35d675cd13b0",
    ("hetero", "annealing", 123): "894b123338402533",
    ("hetero", "antcolony", 7): "024a3c14d487afe7",
    ("hetero", "antcolony", 123): "b3876359a0955a03",
    ("hetero", "cuckoo-sos", 7): "6765fffe359a9a18",
    ("hetero", "cuckoo-sos", 123): "fa337417111e2680",
    ("hetero", "ga", 7): "9eb3fa03343e23c2",
    ("hetero", "ga", 123): "1062d6e62f093ca5",
    ("hetero", "gsa", 7): "246499387a256b81",
    ("hetero", "gsa", 123): "c0b67676c577d693",
    ("hetero", "pso", 7): "80c2e6f5a4d4186e",
    ("hetero", "pso", 123): "9f5a9ba658f64ead",
    ("hetero", "psogsa", 7): "46c202064b8bfe1f",
    ("hetero", "psogsa", 123): "dc4da8b64f7805a1",
    ("homog", "annealing", 7): "b7c3b4a895f5f059",
    ("homog", "annealing", 123): "5e566e9cb2aa0198",
    ("homog", "antcolony", 7): "0210739083d32c13",
    ("homog", "antcolony", 123): "0210739083d32c13",
    ("homog", "cuckoo-sos", 7): "7307d9efb6e739be",
    ("homog", "cuckoo-sos", 123): "59dddd587822c583",
    ("homog", "ga", 7): "dd320e1103bc3633",
    ("homog", "ga", 123): "dd320e1103bc3633",
    ("homog", "gsa", 7): "f30990b43aa01525",
    ("homog", "gsa", 123): "f30990b43aa01525",
    ("homog", "pso", 7): "d0d6b25bc2a6ff81",
    ("homog", "pso", 123): "b07f026a288f209f",
    ("homog", "psogsa", 7): "9045ba84508a075c",
    ("homog", "psogsa", 123): "3d84d4aed36192c8",
}

# ACO variant coverage: every construction/pheromone/tabu code path.
ACO_VARIANT_KWARGS = {
    "aco-vm": dict(num_ants=5, max_iterations=2, pheromone="vm"),
    "aco-tabu": dict(num_ants=5, max_iterations=2, tabu="pass"),
    "aco-load": dict(num_ants=5, max_iterations=2, load_aware=True),
    "aco-gumbel": dict(num_ants=5, max_iterations=2, tabu="pass", pheromone="vm"),
    "aco-patience": dict(num_ants=5, max_iterations=6, patience=2),
}

GOLDEN_ACO_VARIANTS = {
    ("hetero", "aco-vm", 11): "54421693906556359530757512975640325496544696375620331962334974506566895644659359",
    ("hetero", "aco-tabu", 11): "48124888283351294966917387020779632155443075754044201323611520356008669577168999",
    ("hetero", "aco-load", 11): "41378773057678147234691161474577320453696093998667360375440229599317316628335563",
    ("hetero", "aco-gumbel", 11): "48124888283351294966917387020779632155443075754044201323611520356008669577168999",
    ("hetero", "aco-patience", 11): "74445241038401956374077593555746467504483223857934993806907042196436936767604316",
    ("homog", "aco-vm", 11): "1270047237103655403576460166270451517106",
    ("homog", "aco-tabu", 11): "2656100420740206416343375456231723551177",
    ("homog", "aco-load", 11): "1270047237203655414576460266270451517206",
    ("homog", "aco-gumbel", 11): "5213674040136752623450172056734123764150",
    ("homog", "aco-patience", 11): "7213064303531355461702752127002041156356",
}


@pytest.fixture(scope="module")
def cells():
    return {
        "hetero": heterogeneous_scenario(10, 80, seed=123),
        "homog": homogeneous_scenario(8, 40, seed=7),
    }


@pytest.fixture(params=[False, True], ids=["telemetry-off", "telemetry-on"])
def telemetry_state(request):
    """Run the pinned decisions with telemetry both disabled and enabled.

    The observability layer's hard contract: recording spans/counters must
    never change an assignment — instrumentation only observes, it never
    draws randomness or reorders arithmetic.
    """
    from repro import obs

    with obs.enabled(request.param):
        yield request.param


def _digits(assignment) -> str:
    return "".join(str(v) for v in assignment)


def _info_digest(info: dict) -> str:
    """Digest of every ``info`` value except the trace's wall-clock seconds."""
    pinned = dict(info)
    pinned["convergence"] = {
        k: v for k, v in info["convergence"].items() if k != "wall_clock_s"
    }
    blob = json.dumps(pinned, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize(
    ("cell", "name", "seed"),
    sorted(GOLDEN_ASSIGNMENTS),
    ids=[f"{c}-{n}-{s}" for c, n, s in sorted(GOLDEN_ASSIGNMENTS)],
)
def test_golden_assignment_unchanged(cells, telemetry_state, cell, name, seed):
    context = SchedulingContext.from_scenario(cells[cell], seed=seed)
    scheduler = make_scheduler(name, **LIGHT_KWARGS.get(name, {}))
    before = TELEMETRY.snapshot()
    result = scheduler.schedule_checked(context)
    assert _digits(result.assignment) == GOLDEN_ASSIGNMENTS[(cell, name, seed)]
    if telemetry_state and name in OPTIMIZER_TELEMETRY:
        recorded = TELEMETRY.snapshot().diff(before)
        assert (sorted(recorded.spans), sorted(recorded.counters)) == (
            OPTIMIZER_TELEMETRY[name]
        )
        assert _info_digest(result.info) == GOLDEN_INFO[(cell, name, seed)]


@pytest.mark.parametrize(
    ("cell", "variant", "seed"),
    sorted(GOLDEN_ACO_VARIANTS),
    ids=[f"{c}-{v}-{s}" for c, v, s in sorted(GOLDEN_ACO_VARIANTS)],
)
def test_golden_aco_variant_unchanged(cells, telemetry_state, cell, variant, seed):
    context = SchedulingContext.from_scenario(cells[cell], seed=seed)
    scheduler = AntColonyScheduler(**ACO_VARIANT_KWARGS[variant])
    result = scheduler.schedule_checked(context)
    assert _digits(result.assignment) == GOLDEN_ACO_VARIANTS[(cell, variant, seed)]


@pytest.mark.parametrize("name", sorted(LIGHT_KWARGS))
def test_convergence_trace_monotone_for_elitist_optimizers(cells, name):
    """Best-so-far fitness must never increase under elitist incumbents."""
    context = SchedulingContext.from_scenario(cells["hetero"], seed=7)
    result = make_scheduler(name, **LIGHT_KWARGS[name]).schedule_checked(context)
    trace = result.info.get("convergence")
    assert trace is not None, f"{name} published no convergence trace"
    fits = trace["best_fitness"]
    assert len(fits) >= 2
    assert all(b <= a for a, b in zip(fits, fits[1:])), fits
    assert trace["evaluations"] == sorted(trace["evaluations"])
