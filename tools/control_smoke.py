#!/usr/bin/env python
"""Control-loop smoke: the CI gate for the MAPE-K closed loop.

Runs one seeded chaos storm through the online engine and asserts the
contract the docs promise:

1. **Efficacy** — the controlled arm's makespan degradation is strictly
   below the uncontrolled arm's, and its SLA-violation count is no
   higher.
2. **Determinism** — two identical controlled runs produce bit-identical
   assignments, timings and control summaries.
3. **Ablation** — the one :class:`~repro.cloud.online.OnlineBroker`
   with an inert loop attached (thresholds that never fire, no standby
   pool) reproduces its own schedule without a loop byte-for-byte, and
   passing the timeline/control/standby defaults explicitly changes
   nothing.

Prints the storm table; exit status 0 on success, any contract violation
raises.

Usage::

    PYTHONPATH=src python tools/control_smoke.py [--vms 10] [--cloudlets 80]
"""

from __future__ import annotations

import hashlib

import numpy as np

from _smoke import run, smoke_parser  # noqa: E402 - puts src/ on sys.path

from repro.cloud.chaos import demo_storm_timeline, run_storm_suite
from repro.cloud.control import ControlConfig
from repro.cloud.online import OnlineCloudSimulation
from repro.schedulers.online import OnlineGreedyMCT, OnlineLeastLoaded
from repro.workloads.heterogeneous import heterogeneous_scenario

SLA_SECONDS = 30.0

#: thresholds that can never fire: attaches the loop, takes no action.
INERT_CONTROL = ControlConfig(imbalance_threshold=1e9, standby_vms=0)


def schedule_fingerprint(result) -> str:
    """Digest of everything deterministic about a run's schedule.

    Excludes wall-clock scheduling time and the ``info`` dict (which
    records *which* machinery ran, not what it decided).
    """
    h = hashlib.sha256()
    for arr in (
        result.assignment,
        result.submission_times,
        result.start_times,
        result.finish_times,
        result.exec_times,
        result.costs,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(
        repr(
            (result.makespan, result.time_imbalance, result.total_cost)
        ).encode()
    )
    return h.hexdigest()


def check_efficacy(scenario, control) -> None:
    report = run_storm_suite(
        scenario,
        {"greedy-mct": OnlineGreedyMCT, "leastloaded": OnlineLeastLoaded},
        demo_storm_timeline(scenario.num_vms),
        control,
        seeds=(0, 1),
        sla_seconds=SLA_SECONDS,
    )
    controlled = report.mean_degradation("controlled")
    uncontrolled = report.mean_degradation("uncontrolled")
    sla_c = report.sla_violation_count("controlled")
    sla_u = report.sla_violation_count("uncontrolled")
    for row in report.to_rows():
        print(row)
    print(
        f"degradation: controlled {controlled:.4f} vs uncontrolled "
        f"{uncontrolled:.4f}; SLA violations {sla_c} vs {sla_u}"
    )
    assert controlled < uncontrolled, (
        f"control loop failed to reduce degradation "
        f"({controlled:.4f} >= {uncontrolled:.4f})"
    )
    assert sla_c <= sla_u, (
        f"control loop increased SLA violations ({sla_c} > {sla_u})"
    )


def check_determinism(scenario, control) -> None:
    timeline = demo_storm_timeline(scenario.num_vms)

    def run():
        return OnlineCloudSimulation(
            scenario,
            OnlineGreedyMCT(),
            seed=0,
            timeline=timeline,
            control=control,
        ).run()

    first, second = run(), run()
    assert schedule_fingerprint(first) == schedule_fingerprint(second), (
        "two identical controlled runs diverged"
    )
    assert first.info["control"] == second.info["control"], (
        "control summaries diverged between identical runs"
    )
    print(f"determinism: two controlled runs bit-identical "
          f"({schedule_fingerprint(first)[:12]}…)")


def check_ablation(scenario) -> None:
    plain = OnlineCloudSimulation(scenario, OnlineGreedyMCT(), seed=0).run()
    explicit = OnlineCloudSimulation(
        scenario, OnlineGreedyMCT(), seed=0, timeline=None, control=None,
        standby_vms=0,
    ).run()
    inert = OnlineCloudSimulation(
        scenario, OnlineGreedyMCT(), seed=0, control=INERT_CONTROL
    ).run()
    want = schedule_fingerprint(plain)
    assert schedule_fingerprint(explicit) == want, (
        "explicit default kwargs changed the plain online schedule"
    )
    assert schedule_fingerprint(inert) == want, (
        "inert control loop perturbed the schedule"
    )
    assert sum(inert.info["control"]["actions"].values()) == 0, (
        f"inert control config still acted: {inert.info['control']}"
    )
    print("ablation: inert control reproduces the plain schedule byte-for-byte")


def main(argv=None) -> int:
    parser = smoke_parser(__doc__)
    parser.add_argument("--vms", type=int, default=10)
    parser.add_argument("--cloudlets", type=int, default=80)
    args = parser.parse_args(argv)

    scenario = heterogeneous_scenario(args.vms, args.cloudlets, seed=5)
    control = ControlConfig(
        cadence=0.5,
        cooldown=2.0,
        imbalance_threshold=2.0,
        scale_up_backlog=1.5,
        standby_vms=2,
        sla_seconds=SLA_SECONDS,
    )
    check_efficacy(scenario, control)
    check_determinism(scenario, control)
    check_ablation(scenario)
    print("control smoke OK")
    return 0


if __name__ == "__main__":
    run(main)
