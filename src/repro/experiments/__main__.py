"""Command-line entry point: regenerate paper figures and render reports.

Examples
--------
::

    python -m repro.experiments fig6a --preset quick
    python -m repro.experiments all --preset scaled --out results/ -v
    python -m repro.experiments fig4a --stream --chunk-size 65536 -v
    python -m repro.experiments fig4a --stream --shards auto
    python -m repro.experiments fig6a --telemetry --out results/
    python -m repro.experiments fig6b --cache-dir .repro-cache
    python -m repro.experiments cache stats --cache-dir .repro-cache
    python -m repro.experiments report results/
    python -m repro.experiments list
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs
from repro.experiments.extensions import EXTENSION_EXPERIMENTS
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.report import render_figure, save_figure
from repro.experiments.scenarios import Preset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (see DESIGN.md for the index).",
    )
    parser.add_argument(
        "target",
        help=(
            "figure id (fig4a-fig5b, fig6a-fig6d), extension id (ext-*), "
            "'compare', 'storm', 'serve', 'report', 'cache', 'all', or 'list'"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help=(
            "for target 'report': a run JSON (SimulationResult.save), a "
            "telemetry JSONL, or a sweep directory (default: --out); for "
            "target 'cache': the action — stats (default), prune, or verify"
        ),
    )
    compare = parser.add_argument_group("compare options (target 'compare')")
    compare.add_argument(
        "--schedulers",
        default="antcolony,basetest,honeybee,rbs",
        help="comma-separated registry names to compare",
    )
    compare.add_argument("--vms", type=int, default=50, help="fleet size")
    compare.add_argument("--cloudlets", type=int, default=500, help="batch size")
    compare.add_argument(
        "--scenario",
        choices=["heterogeneous", "homogeneous"],
        default="heterogeneous",
        help="scenario family",
    )
    compare.add_argument("--seed", type=int, default=0, help="root seed")
    storm = parser.add_argument_group("storm options (target 'storm')")
    storm.add_argument(
        "--timeline",
        type=Path,
        default=None,
        help=(
            "JSON timeline spec (Timeline.to_dict form) driving arrivals and "
            "faults; default: the built-in demo storm"
        ),
    )
    storm.add_argument(
        "--control",
        default="on",
        choices=["on", "off"],
        help=(
            "'on' (default) runs calm/uncontrolled/controlled arms; 'off' "
            "skips nothing but reports make clear the loop was a no-op"
        ),
    )
    storm.add_argument(
        "--policies",
        default="greedy-mct,leastloaded",
        help="comma-separated online policies (roundrobin, random, leastloaded, greedy-mct)",
    )
    storm.add_argument(
        "--seeds", default="0,1", help="comma-separated storm seeds"
    )
    storm.add_argument(
        "--sla", type=float, default=30.0, help="flow-time SLO in seconds"
    )
    storm.add_argument(
        "--standby", type=int, default=2, help="VMs parked as recruitable reserve"
    )
    storm.add_argument(
        "--cadence", type=float, default=0.5, help="control-loop tick period (s)"
    )
    storm.add_argument(
        "--cooldown", type=float, default=2.0, help="per-action cooldown (s)"
    )
    serve = parser.add_argument_group("serve options (target 'serve')")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for the HTTP service"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port for the HTTP service"
    )
    serve.add_argument(
        "--fleet",
        action="append",
        default=None,
        metavar="NAME=SCHEDULER:FAMILY:VMS[:SEED]",
        help=(
            "fleet to serve (repeatable), e.g. edge=greedy-mct:homogeneous:100; "
            "servable schedulers: basetest, greedy-mct "
            "(default: edge=greedy-mct:homogeneous:100)"
        ),
    )
    parser.add_argument(
        "--preset",
        choices=[p.value for p in Preset],
        default=Preset.QUICK.value,
        help="sweep size: quick (seconds), scaled (minutes), paper (verbatim sizes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for CSV output (default: results/)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the sweep grid (default: serial); "
            "records are bit-identical to a serial run"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "content-addressed result cache directory: figure sweeps replay "
            "previously computed (scheduler, scale, seed) cells from disk "
            "and compute only the missing ones (see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir for this invocation (always recompute)",
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="for 'cache prune': evict oldest entries down to this size",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "run the figure on the memory-bounded streaming engine: chunked "
            "scenario generation + per-VM accumulator folding (fast-path "
            "figures fig4a-fig5b only; see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "cloudlets per streaming chunk (default 65536); metric values "
            "are chunk-size-invariant, only peak memory changes"
        ),
    )
    parser.add_argument(
        "--shards",
        default=None,
        help=(
            "data-parallel shard count for --stream points ('auto' = cpu "
            "count); results are shard-count-invariant, so cached serial "
            "entries still hit"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "record span timings and subsystem counters during the sweep and "
            "write <out>/<target>.telemetry.jsonl next to the CSV"
        ),
    )
    parser.add_argument(
        "--logy", action="store_true", help="plot the y axis on a log scale"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print per-cell progress"
    )
    return parser


def run_compare(args) -> int:
    """Run an ad-hoc scheduler comparison and print the metric table."""
    from repro.analysis.tables import format_table
    from repro.cloud.simulation import CloudSimulation
    from repro.schedulers import SCHEDULER_REGISTRY, make_scheduler
    from repro.workloads import heterogeneous_scenario, homogeneous_scenario

    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    unknown = [n for n in names if n not in SCHEDULER_REGISTRY]
    if unknown:
        print(
            f"unknown scheduler(s) {unknown}; available: {sorted(SCHEDULER_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    factory = (
        heterogeneous_scenario if args.scenario == "heterogeneous" else homogeneous_scenario
    )
    scenario = factory(args.vms, args.cloudlets, seed=args.seed)
    print(f"Scenario: {scenario.name} (seed={args.seed})\n")
    rows = []
    for name in names:
        result = CloudSimulation(scenario, make_scheduler(name), seed=args.seed).run()
        rows.append(
            {
                "scheduler": name,
                "makespan_s": result.makespan,
                "scheduling_time_s": result.scheduling_time,
                "time_imbalance": result.time_imbalance,
                "processing_cost": result.total_cost,
            }
        )
    print(format_table(rows, float_format="{:.4g}"))
    return 0


#: online policy registry for the 'storm' target.
STORM_POLICIES = {
    "roundrobin": "OnlineRoundRobin",
    "random": "OnlineRandom",
    "leastloaded": "OnlineLeastLoaded",
    "greedy-mct": "OnlineGreedyMCT",
}


def run_storm(args) -> int:
    """Run a timeline-driven chaos storm with and without the MAPE-K loop."""
    import repro.schedulers.online as online_policies
    from repro.analysis.tables import format_table
    from repro.cloud.chaos import demo_storm_timeline, run_storm_suite
    from repro.cloud.control import ControlConfig
    from repro.workloads import heterogeneous_scenario
    from repro.workloads.timeline import timeline_from_dict

    names = [n.strip() for n in args.policies.split(",") if n.strip()]
    unknown = [n for n in names if n not in STORM_POLICIES]
    if unknown:
        print(
            f"unknown online polic{'y' if len(unknown) == 1 else 'ies'} "
            f"{unknown}; available: {sorted(STORM_POLICIES)}",
            file=sys.stderr,
        )
        return 2
    scenario = heterogeneous_scenario(args.vms, args.cloudlets, seed=args.seed)
    if args.timeline is not None:
        import json

        timeline = timeline_from_dict(json.loads(args.timeline.read_text()))
    else:
        timeline = demo_storm_timeline(scenario.num_vms)
    # --control off keeps the three-arm comparison but attaches an inert
    # loop (thresholds it can never cross), so "controlled" degenerates to
    # the self-healing baseline — a clean ablation of the loop itself.
    inert = args.control == "off"
    control = ControlConfig(
        cadence=args.cadence,
        cooldown=args.cooldown,
        standby_vms=args.standby,
        imbalance_threshold=1e9 if inert else 2.0,
        scale_up_backlog=None if inert else 1.5,
        sla_seconds=args.sla,
    )
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    policies = {
        name: getattr(online_policies, STORM_POLICIES[name]) for name in names
    }
    report = run_storm_suite(
        scenario, policies, timeline, control, seeds=seeds, sla_seconds=args.sla
    )
    print(
        f"Storm {timeline.name!r} on {scenario.name} "
        f"(seeds={list(seeds)}, sla={args.sla}s, control={args.control})\n"
    )
    print(format_table(report.to_rows(), float_format="{:.4g}"))
    print()
    for arm in ("uncontrolled", "controlled"):
        print(
            f"{arm:12s} mean degradation "
            f"{report.mean_degradation(arm):.4f}, "
            f"SLA violations {report.sla_violation_count(arm)}"
        )
    path = report.save(args.out / "storm.json")
    print(f"\n(report written to {path}; render with the 'report' target)")
    return 0


def _parse_fleet_arg(text: str):
    """``NAME=SCHEDULER:FAMILY:VMS[:SEED]`` → :class:`repro.serve.FleetSpec`."""
    from repro.serve import FleetSpec

    name, sep, rest = text.partition("=")
    if not sep or not name:
        raise ValueError(f"fleet spec {text!r} is not NAME=SCHEDULER:FAMILY:VMS[:SEED]")
    parts = rest.split(":")
    if not 1 <= len(parts) <= 4:
        raise ValueError(f"fleet spec {text!r} has {len(parts)} fields, expected 1-4")
    scheduler = parts[0]
    family = parts[1] if len(parts) > 1 and parts[1] else "homogeneous"
    num_vms = int(parts[2]) if len(parts) > 2 else 100
    seed = int(parts[3]) if len(parts) > 3 else 0
    return FleetSpec(
        name=name, scheduler=scheduler, family=family, num_vms=num_vms, seed=seed
    )


def run_serve(args) -> int:
    """Serve live placement requests over HTTP until interrupted."""
    from repro.serve import SchedulerService, ServeError
    from repro.serve.http import run_server

    service = SchedulerService()
    try:
        for text in args.fleet or ["edge=greedy-mct:homogeneous:100"]:
            spec = _parse_fleet_arg(text)
            fleet = service.add_fleet(spec)
            print(
                f"fleet {spec.name!r}: {spec.scheduler} over {spec.num_vms} "
                f"{spec.family} VMs, seed {spec.seed} "
                f"(fingerprint {fleet.manifest.fingerprint()[:12]})"
            )
    except (ServeError, ValueError) as exc:
        print(f"bad --fleet: {exc}", file=sys.stderr)
        return 2
    print(
        "endpoints: GET /healthz | GET /v1/fleets[/<name>] | "
        "POST /v1/fleets/<name>/submit"
    )
    if args.telemetry:
        with obs.enabled(True):
            run_server(service, args.host, args.port)
    else:
        run_server(service, args.host, args.port)
    return 0


def _report_one(path: Path) -> bool:
    """Render one artifact (run JSON or telemetry JSONL); False if unusable."""
    if path.suffix == ".jsonl":
        try:
            snapshot, manifest = obs.read_telemetry_jsonl(path)
        except (ValueError, KeyError):
            return False
        print(obs.render_telemetry(snapshot, title=str(path)))
        if manifest is not None:
            print()
            print(obs.render_manifest(manifest))
        print()
        return True
    if path.suffix == ".json":
        from repro.cloud.chaos import load_report_rows
        from repro.cloud.simulation import SimulationResult

        try:
            payload = load_report_rows(path)
        except (OSError, ValueError):
            payload = None
        if payload is not None:
            from repro.analysis.tables import format_table

            title = f"{path} — {payload['kind']} on {payload.get('scenario', '?')}"
            print(title)
            print("=" * len(title))
            print(format_table(payload["rows"], float_format="{:.4g}"))
            for aggregate in ("mean_degradation", "sla_violations"):
                if aggregate in payload:
                    print(f"{aggregate}: {payload[aggregate]}")
            print()
            return True
        try:
            result = SimulationResult.load(path)
        except (ValueError, KeyError):
            return False
        title = f"{path} — {result.scheduler_name} on {result.scenario_name}"
        telemetry = result.info.get("telemetry")
        if telemetry:
            snapshot = obs.TelemetrySnapshot.from_dict(telemetry)
            print(obs.render_telemetry(snapshot, title=title))
        else:
            print(title)
            print("=" * len(title))
            print("(run was recorded without telemetry)")
        manifest_dict = result.info.get("manifest")
        if manifest_dict:
            print()
            print(obs.render_manifest(obs.RunManifest.from_dict(manifest_dict)))
        print()
        return True
    return False


def run_cache(args) -> int:
    """Inspect or maintain a result cache (stats / prune / verify)."""
    from repro.cache import ResultCache

    if args.cache_dir is None:
        print("target 'cache' requires --cache-dir", file=sys.stderr)
        return 2
    action = str(args.path) if args.path is not None else "stats"
    if action not in ("stats", "prune", "verify"):
        print(
            f"unknown cache action {action!r}; expected stats, prune or verify",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_dir)
    if action == "stats":
        stats = cache.stats()
        print(f"cache: {cache.root}")
        print(f"entries:     {stats.entries}")
        print(f"total bytes: {stats.total_bytes} ({stats.total_bytes / 1e6:.2f} MB)")
        for version, count in sorted(stats.by_version.items()):
            print(f"  version {version}: {count} entr{'y' if count == 1 else 'ies'}")
        return 0
    if action == "prune":
        max_bytes = int(args.max_mb * 1e6) if args.max_mb is not None else None
        report = cache.prune(max_bytes=max_bytes)
        print(
            f"pruned {report.removed} entr{'y' if report.removed == 1 else 'ies'}, "
            f"freed {report.freed_bytes} bytes"
        )
        return 0
    problems = cache.verify()
    if not problems:
        print(f"cache {cache.root}: all {len(cache)} entries verify")
        return 0
    for problem in problems:
        print(problem)
    print(f"({len(problems)} problem(s) found)", file=sys.stderr)
    return 1


def run_report(args) -> int:
    """Render telemetry/manifest reports for a run file or sweep directory."""
    path = args.path if args.path is not None else args.out
    if not path.exists():
        print(f"report target {path} does not exist", file=sys.stderr)
        return 2
    if path.is_file():
        if _report_one(path):
            return 0
        print(
            f"{path} is neither a telemetry JSONL nor a saved run JSON",
            file=sys.stderr,
        )
        return 2
    rendered = 0
    for candidate in sorted(path.iterdir()):
        if candidate.suffix in (".jsonl", ".json") and _report_one(candidate):
            rendered += 1
    if rendered == 0:
        print(
            f"no telemetry artifacts in {path}; run a figure with --telemetry "
            "or save a run with SimulationResult.save first",
            file=sys.stderr,
        )
        return 2
    print(f"({rendered} artifact(s) rendered from {path})")
    return 0


def _parse_shards(value, stream: bool) -> int | None:
    """Resolve --shards: None passes through, 'auto' = cpu count, else int."""
    if value is None:
        return None
    if not stream:
        raise SystemExit("--shards requires --stream")
    if str(value).lower() == "auto":
        import os

        return os.cpu_count() or 1
    try:
        shards = int(value)
    except ValueError:
        raise SystemExit(f"--shards expects an integer or 'auto', got {value!r}")
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    return shards


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "compare":
        return run_compare(args)
    if args.target == "storm":
        args.out.mkdir(parents=True, exist_ok=True)
        return run_storm(args)
    if args.target == "serve":
        return run_serve(args)
    if args.target == "report":
        return run_report(args)
    if args.target == "cache":
        return run_cache(args)
    if args.target == "list":
        for experiment_id, definition in sorted(EXPERIMENTS.items()):
            print(f"{experiment_id:10s} {definition.title}")
            print(f"{'':10s}   expectation: {definition.expectation}")
        for experiment_id, runner in sorted(EXTENSION_EXPERIMENTS.items()):
            print(f"{experiment_id:10s} {(runner.__doc__ or '').strip().splitlines()[0]}")
        return 0

    targets = sorted(EXPERIMENTS) if args.target == "all" else [args.target.lower()]
    if args.target == "all" and args.stream:
        # Only the analytic fast-path figures can stream; skip DES figures
        # rather than failing halfway through the batch.
        targets = [t for t in targets if EXPERIMENTS[t].engine == "fast"]
        print(f"(--stream: running fast-path figures only: {', '.join(targets)})")
    unknown = [
        t for t in targets if t not in EXPERIMENTS and t not in EXTENSION_EXPERIMENTS
    ]
    if unknown:
        print(f"unknown experiment(s) {unknown}; try 'list'", file=sys.stderr)
        return 2

    shards = _parse_shards(args.shards, args.stream)

    cache = None
    if args.cache_dir is not None and not args.no_cache:
        from repro.cache import ResultCache

        cache = ResultCache(args.cache_dir)

    if args.telemetry:
        obs.enable()
    progress = print if args.verbose else None
    for target in targets:
        telemetry_before = obs.snapshot() if args.telemetry else None
        hits_before = (cache.hits, cache.misses) if cache is not None else (0, 0)
        t0 = time.perf_counter()
        if target in EXTENSION_EXPERIMENTS:
            if args.workers and args.workers > 1:
                print(f"note: {target} is an extension experiment; running serially")
            if cache is not None:
                print(f"note: {target} is an extension experiment; cache not used")
            if args.stream:
                print(f"note: {target} is an extension experiment; --stream ignored")
            data = EXTENSION_EXPERIMENTS[target](args.preset)
        else:
            try:
                data = run_experiment(
                    target,
                    preset=args.preset,
                    progress=progress,
                    workers=args.workers,
                    cache=cache,
                    stream=args.stream,
                    chunk_size=args.chunk_size,
                    shards=shards,
                )
            except ValueError as exc:
                if not args.stream:
                    raise
                print(str(exc), file=sys.stderr)
                return 2
        elapsed = time.perf_counter() - t0
        # Scheduling-time figures span decades; log scale reads better.
        logy = args.logy or target.startswith("fig5") or target == "fig6b"
        print(render_figure(data, logy=logy))
        path = save_figure(data, args.out)
        print(f"(swept in {elapsed:.1f}s; CSV written to {path})")
        if cache is not None and target in EXPERIMENTS:
            hits = cache.hits - hits_before[0]
            misses = cache.misses - hits_before[1]
            print(f"(cache: {hits} hit(s), {misses} miss(es) at {cache.root})")
        print()
        if telemetry_before is not None:
            snapshot = obs.snapshot().diff(telemetry_before)
            manifest = obs.capture_manifest(
                engine="sweep",
                timestamp=True,
                experiment=target,
                preset=args.preset,
                workers=args.workers,
            )
            telemetry_path = obs.write_telemetry_jsonl(
                args.out / f"{target}.telemetry.jsonl", snapshot, manifest
            )
            print(obs.render_telemetry(snapshot, title=f"{target} telemetry"))
            print(f"(telemetry written to {telemetry_path})\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
