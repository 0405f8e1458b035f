#!/usr/bin/env python
"""Full-registry scheduler gauntlet: every scheduler, five scenario families.

Closes ROADMAP item 4.  One driver runs **every** registry scheduler
through the repo's execution surfaces and records, per (family,
scheduler) cell, a SHA-256 *decision hash* plus the deterministic
metrics — then diffs a fresh run against the committed record
(``BENCH_gauntlet.json``) with **blocking** gates:

* **decision drift** — any change to an assignment hash (or, on the
  streaming family, the per-VM accumulator bytes) is a hard failure.
  Decisions are seeded and machine-independent; a drifted hash means
  RNG draw order or float arithmetic changed.
* **makespan drift** — same contract, same hardness: the metrics are
  pure functions of the decisions.
* **throughput** — streaming rows gate on throughput *relative to
  basetest in the same run* (machine-invariant; absolute cloudlets/s is
  recorded for information).  Fail when the relative throughput drops
  more than 25% below the committed ratio.
* **peak RSS** — fail when the run's high-water mark grows more than
  10% above the committed record.

Families:

* ``homog`` / ``hetero`` — the paper's batch conditions through
  :class:`~repro.cloud.fast.FastSimulation`;
* ``online`` — Poisson arrivals through
  :class:`~repro.cloud.online.OnlineCloudSimulation`, each batch
  scheduler wrapped in a per-wave
  :class:`~repro.schedulers.online.BatchAdapter`;
* ``faulty`` — a seeded :func:`~repro.cloud.chaos.generate_fault_plan`
  chaos plan through :func:`~repro.cloud.resilience.run_resilient`
  (scheduler-driven re-placement of bounced cloudlets);
* ``stream`` — the paper-scale streaming path
  (:class:`~repro.cloud.fast.StreamingSimulation`, over a heterogeneous
  stream whose uneven fleet keeps the hashes scheduler-specific) for the
  native streaming schedulers; there is no per-cloudlet assignment in
  bounded mode, so the decision hash covers ``vm_finish_times`` +
  ``vm_costs``.

Usage::

    PYTHONPATH=src python tools/gauntlet.py run [--out BENCH_gauntlet.json]
    PYTHONPATH=src python tools/gauntlet.py check [--baseline BENCH_gauntlet.json]
        [--throughput-tolerance 0.25] [--rss-tolerance 0.10]

``check`` replays the baseline's recorded config (scales, seeds), so a
committed smoke-scale record diffs directly in CI.  It ends with two
summary lines — decisions (hash and makespan, k/N rows matching) and
throughput/RSS — so the machine-independent decision oracle reads on its
own even when a slower host fails the resource gates.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from _smoke import run, smoke_parser  # noqa: E402 - puts src/ on sys.path

import numpy as np  # noqa: E402

from repro.cloud.chaos import ChaosConfig, generate_fault_plan  # noqa: E402
from repro.cloud.fast import (  # noqa: E402
    FastSimulation,
    StreamingSimulation,
    peak_rss_bytes,
)
from repro.cloud.online import OnlineCloudSimulation  # noqa: E402
from repro.cloud.resilience import run_resilient  # noqa: E402
from repro.core.rng import spawn_rng  # noqa: E402
from repro.schedulers import SCHEDULER_REGISTRY, make_scheduler  # noqa: E402
from repro.schedulers.online import BatchAdapter  # noqa: E402
from repro.schedulers.streaming import (  # noqa: E402
    STREAMING_SCHEDULERS,
    make_streaming_scheduler,
)
from repro.workloads.arrivals import PoissonArrivals  # noqa: E402
from repro.workloads.heterogeneous import heterogeneous_scenario  # noqa: E402
from repro.workloads.homogeneous import homogeneous_scenario  # noqa: E402
from repro.workloads.streaming import heterogeneous_stream  # noqa: E402

_REPO = Path(__file__).resolve().parent.parent

RECORD_VERSION = 1

#: population/iteration budgets keeping metaheuristic cells fast while
#: still exercising every inner loop (mirrors the golden-pin configs).
GAUNTLET_KWARGS = {
    "annealing": {"iterations": 500},
    "antcolony": {"num_ants": 5, "max_iterations": 2},
    "cuckoo-sos": {"ecosystem_size": 6, "max_iterations": 4},
    "ga": {"population_size": 8, "generations": 5},
    "gsa": {"num_agents": 6, "max_iterations": 5},
    "pso": {"num_particles": 6, "max_iterations": 5},
    "psogsa": {"num_particles": 6, "max_iterations": 5},
}

#: fixed smoke-scale config; ``check`` replays the committed record's
#: copy of this, so re-recording at another scale keeps CI coherent.
DEFAULT_CONFIG = {
    "homog": {"num_vms": 8, "num_cloudlets": 40, "seed": 11},
    "hetero": {"num_vms": 10, "num_cloudlets": 60, "seed": 11},
    "online": {"num_vms": 6, "num_cloudlets": 40, "seed": 5, "rate": 2.0},
    "faulty": {"num_vms": 8, "num_cloudlets": 50, "seed": 23},
    "stream": {
        "num_vms": 8,
        "num_cloudlets": 200_000,
        "seed": 7,
        "chunk_size": 8192,
        "rounds": 3,
    },
}

FAMILIES = tuple(DEFAULT_CONFIG)


def _scheduler(name: str):
    return make_scheduler(name, **GAUNTLET_KWARGS.get(name, {}))


def decision_hash(*arrays: np.ndarray) -> str:
    """SHA-256 over the canonicalised decision arrays.

    Assignments are cast to a fixed dtype first so the hash pins the
    *decisions*, not whichever integer width a scheduler happened to
    return.
    """
    digest = hashlib.sha256()
    for array in arrays:
        canonical = (
            np.ascontiguousarray(array, dtype=np.int64)
            if np.issubdtype(np.asarray(array).dtype, np.integer)
            else np.ascontiguousarray(array, dtype=np.float64)
        )
        digest.update(canonical.tobytes())
    return digest.hexdigest()


def _batch_rows(family: str, cfg: dict) -> list[dict]:
    scenario_factory = (
        homogeneous_scenario if family == "homog" else heterogeneous_scenario
    )
    scenario = scenario_factory(cfg["num_vms"], cfg["num_cloudlets"], seed=cfg["seed"])
    rows = []
    for name in sorted(SCHEDULER_REGISTRY):
        result = FastSimulation(scenario, _scheduler(name), seed=cfg["seed"]).run()
        rows.append(
            {
                "family": family,
                "scheduler": name,
                "decision_sha256": decision_hash(result.assignment),
                "makespan": result.makespan,
            }
        )
    return rows


def _online_rows(cfg: dict) -> list[dict]:
    scenario = heterogeneous_scenario(
        cfg["num_vms"], cfg["num_cloudlets"], seed=cfg["seed"]
    )
    rows = []
    for name in sorted(SCHEDULER_REGISTRY):
        result = OnlineCloudSimulation(
            scenario,
            BatchAdapter(_scheduler(name)),
            arrivals=PoissonArrivals(rate=cfg["rate"]),
            seed=cfg["seed"],
        ).run()
        rows.append(
            {
                "family": "online",
                "scheduler": name,
                "decision_sha256": decision_hash(result.assignment),
                "makespan": result.makespan,
            }
        )
    return rows


def _faulty_rows(cfg: dict) -> list[dict]:
    scenario = heterogeneous_scenario(
        cfg["num_vms"], cfg["num_cloudlets"], seed=cfg["seed"]
    )
    baseline = FastSimulation(
        scenario, make_scheduler("basetest"), seed=cfg["seed"]
    ).run()
    plan = generate_fault_plan(
        scenario,
        baseline.makespan,
        ChaosConfig(num_vm_failures=1, num_stragglers=1),
        spawn_rng(cfg["seed"], "gauntlet/faults"),
    )
    rows = []
    for name in sorted(SCHEDULER_REGISTRY):
        result = run_resilient(
            scenario, _scheduler(name), failures=plan, seed=cfg["seed"]
        )
        rows.append(
            {
                "family": "faulty",
                "scheduler": name,
                "decision_sha256": decision_hash(result.assignment),
                "makespan": result.makespan,
            }
        )
    return rows


def _stream_rows(cfg: dict) -> list[dict]:
    rows = []
    for name in sorted(STREAMING_SCHEDULERS):
        best_s = float("inf")
        hashes = set()
        for _ in range(cfg["rounds"]):
            stream = heterogeneous_stream(
                cfg["num_vms"],
                cfg["num_cloudlets"],
                seed=cfg["seed"],
                chunk_size=cfg["chunk_size"],
            )
            t0 = time.perf_counter()
            result = StreamingSimulation(
                stream, make_streaming_scheduler(name), seed=cfg["seed"]
            ).run()
            best_s = min(best_s, time.perf_counter() - t0)
            hashes.add(decision_hash(result.vm_finish_times, result.vm_costs))
        if len(hashes) != 1:
            raise AssertionError(
                f"stream/{name}: rounds disagreed on the decision hash: {hashes}"
            )
        rows.append(
            {
                "family": "stream",
                "scheduler": name,
                "decision_sha256": hashes.pop(),
                "makespan": result.makespan,
                "seconds": round(best_s, 3),
                "throughput_cloudlets_per_s": round(cfg["num_cloudlets"] / best_s),
            }
        )
    basetest_tp = next(
        r["throughput_cloudlets_per_s"] for r in rows if r["scheduler"] == "basetest"
    )
    for row in rows:
        row["relative_throughput"] = round(
            row["throughput_cloudlets_per_s"] / basetest_tp, 4
        )
    return rows


def run_gauntlet(config: dict) -> dict:
    """One full pass over every family; returns the versioned record."""
    rows: list[dict] = []
    for family in FAMILIES:
        cfg = config[family]
        print(f"[gauntlet] {family}: {cfg}", file=sys.stderr)
        if family in ("homog", "hetero"):
            rows.extend(_batch_rows(family, cfg))
        elif family == "online":
            rows.extend(_online_rows(cfg))
        elif family == "faulty":
            rows.extend(_faulty_rows(cfg))
        else:
            rows.extend(_stream_rows(cfg))
    return {
        "version": RECORD_VERSION,
        "config": config,
        "rows": rows,
        "peak_rss_mb": round(peak_rss_bytes() / 2**20, 1),
    }


def _gate_failures(
    committed: dict,
    fresh: dict,
    throughput_tolerance: float,
    rss_tolerance: float,
) -> list[tuple[str, str]]:
    """Every failed gate as ``(gate, line)``.

    ``gate`` is "decision" (row sets, hashes, makespans: machine-independent)
    or "throughput" / "rss" (host-dependent resource gates).
    """
    if committed.get("version") != fresh.get("version"):
        return [(
            "decision",
            f"record version drifted: committed {committed.get('version')!r} "
            f"vs fresh {fresh.get('version')!r} — re-record BENCH_gauntlet.json",
        )]

    failures: list[tuple[str, str]] = []
    committed_rows, fresh_rows = _rows(committed), _rows(fresh)
    for family, name in sorted(committed_rows.keys() - fresh_rows.keys()):
        failures.append(("decision", f"{family}/{name}: row missing from the fresh run"))
    for family, name in sorted(fresh_rows.keys() - committed_rows.keys()):
        failures.append((
            "decision",
            f"{family}/{name}: new row not in the committed record — "
            "re-record BENCH_gauntlet.json",
        ))

    for cell in sorted(committed_rows.keys() & fresh_rows.keys()):
        family, name = cell
        base, new = committed_rows[cell], fresh_rows[cell]
        if new["decision_sha256"] != base["decision_sha256"]:
            failures.append((
                "decision",
                f"{family}/{name}: decision hash drifted "
                f"(committed {base['decision_sha256'][:12]}… vs "
                f"fresh {new['decision_sha256'][:12]}…)",
            ))
        if new["makespan"] != base["makespan"]:
            failures.append((
                "decision",
                f"{family}/{name}: makespan drifted "
                f"(committed {base['makespan']!r} vs fresh {new['makespan']!r})",
            ))
        if "relative_throughput" in base:
            floor = base["relative_throughput"] * (1 - throughput_tolerance)
            if new["relative_throughput"] < floor:
                failures.append((
                    "throughput",
                    f"{family}/{name}: relative throughput "
                    f"{new['relative_throughput']:.4f} is more than "
                    f"{throughput_tolerance:.0%} below committed "
                    f"{base['relative_throughput']:.4f} "
                    f"(absolute: {new['throughput_cloudlets_per_s']:,}/s vs "
                    f"{base['throughput_cloudlets_per_s']:,}/s)",
                ))

    rss_cap = committed["peak_rss_mb"] * (1 + rss_tolerance)
    if fresh["peak_rss_mb"] > rss_cap:
        failures.append((
            "rss",
            f"peak RSS {fresh['peak_rss_mb']:.1f} MiB is more than "
            f"{rss_tolerance:.0%} above committed {committed['peak_rss_mb']:.1f} MiB",
        ))
    return failures


def _rows(record: dict) -> dict:
    return {(r["family"], r["scheduler"]): r for r in record["rows"]}


def diff_records(
    committed: dict,
    fresh: dict,
    throughput_tolerance: float = 0.25,
    rss_tolerance: float = 0.10,
) -> list[str]:
    """Blocking comparison; returns human-readable failure lines."""
    return [
        line
        for _, line in _gate_failures(
            committed, fresh, throughput_tolerance, rss_tolerance
        )
    ]


def summary_lines(
    committed: dict,
    fresh: dict,
    throughput_tolerance: float = 0.25,
    rss_tolerance: float = 0.10,
) -> list[str]:
    """Two verdicts: decisions first, then the host-dependent resource gates.

    A resource failure on a slower host says nothing about the decisions,
    so the decision oracle is reported on a line of its own.
    """
    gates = [gate for gate, _ in _gate_failures(
        committed, fresh, throughput_tolerance, rss_tolerance
    )]
    committed_rows, fresh_rows = _rows(committed), _rows(fresh)
    matching = sum(
        cell in fresh_rows
        and fresh_rows[cell]["decision_sha256"] == row["decision_sha256"]
        and fresh_rows[cell]["makespan"] == row["makespan"]
        for cell, row in committed_rows.items()
    )
    timed = sum("relative_throughput" in row for row in committed_rows.values())
    rss_cap = committed["peak_rss_mb"] * (1 + rss_tolerance)
    resources_ok = "throughput" not in gates and "rss" not in gates
    return [
        f"decisions: {matching}/{len(committed_rows)} rows match the committed "
        f"hash and makespan — {'FAIL' if 'decision' in gates else 'OK'}",
        f"throughput/RSS: {timed - gates.count('throughput')}/{timed} timed rows "
        f"within {throughput_tolerance:.0%} of committed relative throughput, "
        f"peak RSS {fresh['peak_rss_mb']:.1f} MiB (cap {rss_cap:.1f}) — "
        f"{'OK' if resources_ok else 'FAIL'}",
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = smoke_parser(__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("run", help="run the gauntlet and write the record")
    record.add_argument("--out", type=Path, default=_REPO / "BENCH_gauntlet.json")
    record.add_argument("--stream-cloudlets", type=int, default=None)

    check = sub.add_parser("check", help="fresh run diffed against the record")
    check.add_argument(
        "--baseline", type=Path, default=_REPO / "BENCH_gauntlet.json"
    )
    check.add_argument("--throughput-tolerance", type=float, default=0.25)
    check.add_argument("--rss-tolerance", type=float, default=0.10)
    args = parser.parse_args(argv)

    if args.command == "run":
        config = {k: dict(v) for k, v in DEFAULT_CONFIG.items()}
        if args.stream_cloudlets:
            config["stream"]["num_cloudlets"] = args.stream_cloudlets
        record = run_gauntlet(config)
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {len(record['rows'])} rows to {args.out}")
        return 0

    committed = json.loads(args.baseline.read_text())
    fresh = run_gauntlet(committed["config"])
    failures = diff_records(
        committed,
        fresh,
        throughput_tolerance=args.throughput_tolerance,
        rss_tolerance=args.rss_tolerance,
    )
    for row in fresh["rows"]:
        cell = f"{row['family']}/{row['scheduler']}"
        print(f"{cell:24s} {row['decision_sha256'][:12]}…  makespan {row['makespan']:.4f}")
    for failure in failures:
        print(f"GAUNTLET REGRESSION: {failure}", file=sys.stderr)
    for line in summary_lines(
        committed,
        fresh,
        throughput_tolerance=args.throughput_tolerance,
        rss_tolerance=args.rss_tolerance,
    ):
        print(line)
    if failures:
        return 1
    print(f"gauntlet OK: {len(fresh['rows'])} cells match the committed record")
    return 0


if __name__ == "__main__":
    run(main)
