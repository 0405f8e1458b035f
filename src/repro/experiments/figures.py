"""Per-figure experiment definitions.

Every paper figure (and every ablation from DESIGN.md) is an
:class:`ExperimentDefinition`: which scenario family, which metric, which
schedulers, and the paper's qualitative expectation.  :func:`run_experiment`
executes one at a chosen preset and returns a :class:`FigureData` —
aggregated series ready for the report layer (ASCII plot + CSV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.experiments.runner import Engine, SweepRecord, run_sweep
from repro.experiments.scenarios import Preset, SweepConfig, preset_config
from repro.metrics.stats import summarize
from repro.schedulers import PAPER_SCHEDULERS
from repro.workloads.streaming import (
    DEFAULT_CHUNK_SIZE,
    heterogeneous_stream,
    homogeneous_stream,
)


@dataclass
class FigureData:
    """Aggregated series for one figure: mean (and CI) per x per scheduler."""

    experiment_id: str
    title: str
    xlabel: str
    ylabel: str
    x: list[int]
    #: scheduler -> series of means, aligned with ``x``.
    series: dict[str, list[float]]
    #: scheduler -> series of CI half-widths, aligned with ``x``.
    ci: dict[str, list[float]]
    records: list[SweepRecord] = field(default_factory=list)
    #: column name of the x axis in tabular output.
    x_key: str = "num_vms"

    def to_rows(self) -> list[dict[str, float | int | str]]:
        """Long-format rows for CSV export."""
        rows: list[dict[str, float | int | str]] = []
        for name, values in self.series.items():
            for xi, v, c in zip(self.x, values, self.ci[name]):
                rows.append(
                    {
                        "experiment": self.experiment_id,
                        "scheduler": name,
                        self.x_key: xi,
                        "mean": v,
                        "ci95": c,
                    }
                )
        return rows


@dataclass(frozen=True)
class ScenarioFamily:
    """Picklable (num_vms, num_cloudlets, seed) -> scenario factory.

    Parallel sweeps pickle the factory into spawn-based workers, so it is
    a dataclass keyed by the family name rather than a lambda.

    The factory builds the family's stream.  With ``chunked=True`` it
    yields that :class:`~repro.workloads.streaming.ScenarioChunks`, whose
    workload exists only one chunk at a time (what the ``"stream"``
    engine sweeps use at paper scale); otherwise its materialised
    ``to_spec()``.
    """

    kind: str  # "homogeneous" | "heterogeneous"
    chunked: bool = False
    chunk_size: int | None = None

    def __call__(self, num_vms: int, num_cloudlets: int, seed: int):
        if self.kind not in ("homogeneous", "heterogeneous"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        make = homogeneous_stream if self.kind == "homogeneous" else heterogeneous_stream
        stream = make(
            num_vms, num_cloudlets, seed=seed, chunk_size=self.chunk_size or DEFAULT_CHUNK_SIZE
        )
        return stream if self.chunked else stream.to_spec()


@dataclass(frozen=True)
class ExperimentDefinition:
    """A reproducible experiment: scenario family + sweep + metric."""

    experiment_id: str
    title: str
    metric: str
    ylabel: str
    scenario_kind: str  # "homogeneous" | "heterogeneous"
    engine: Engine
    schedulers: tuple[str, ...] = PAPER_SCHEDULERS
    #: paper's qualitative expectation, documented in EXPERIMENTS.md.
    expectation: str = ""

    def scenario_factory(
        self, chunked: bool = False, chunk_size: int | None = None
    ) -> ScenarioFamily:
        if self.scenario_kind not in ("homogeneous", "heterogeneous"):
            raise ValueError(f"unknown scenario kind {self.scenario_kind!r}")
        return ScenarioFamily(self.scenario_kind, chunked=chunked, chunk_size=chunk_size)

    def config(self, preset: Preset | str) -> SweepConfig:
        return preset_config(self.experiment_id, preset)


EXPERIMENTS: dict[str, ExperimentDefinition] = {
    e.experiment_id: e
    for e in (
        ExperimentDefinition(
            experiment_id="fig4a",
            title="Simulation time, homogeneous (small fleet sweep)",
            metric="makespan",
            ylabel="simulation time of cloudlets (s)",
            scenario_kind="homogeneous",
            engine="fast",
            expectation=(
                "all schedulers converge to the Base Test optimum; makespan "
                "decreases as VMs grow"
            ),
        ),
        ExperimentDefinition(
            experiment_id="fig4b",
            title="Simulation time, homogeneous (large fleet sweep)",
            metric="makespan",
            ylabel="simulation time of cloudlets (s)",
            scenario_kind="homogeneous",
            engine="fast",
            expectation="same as fig4a at 10x the fleet size",
        ),
        ExperimentDefinition(
            experiment_id="fig5a",
            title="Scheduling time, homogeneous (small fleet sweep)",
            metric="scheduling_time",
            ylabel="scheduling time (s)",
            scenario_kind="homogeneous",
            engine="fast",
            expectation=(
                "Base Test orders of magnitude below ACO/HBO/RBS, which pay "
                "for their decision computations"
            ),
        ),
        ExperimentDefinition(
            experiment_id="fig5b",
            title="Scheduling time, homogeneous (large fleet sweep)",
            metric="scheduling_time",
            ylabel="scheduling time (s)",
            scenario_kind="homogeneous",
            engine="fast",
            expectation="same ordering as fig5a",
        ),
        ExperimentDefinition(
            experiment_id="fig6a",
            title="Simulation time, heterogeneous",
            metric="makespan",
            ylabel="simulation time of cloudlets (s)",
            scenario_kind="heterogeneous",
            engine="des",
            expectation=(
                "ACO best; HBO slightly better than Base Test; RBS about the "
                "same as Base Test with fluctuations"
            ),
        ),
        ExperimentDefinition(
            experiment_id="fig6b",
            title="Scheduling time, heterogeneous",
            metric="scheduling_time",
            ylabel="scheduling time (s)",
            scenario_kind="heterogeneous",
            engine="des",
            expectation="Base Test < RBS < HBO < ACO",
        ),
        ExperimentDefinition(
            experiment_id="fig6c",
            title="Degree of time imbalance, heterogeneous",
            metric="time_imbalance",
            ylabel="time degree of imbalance",
            scenario_kind="heterogeneous",
            engine="des",
            expectation=(
                "metaheuristics (ACO, HBO) show the worst imbalance — they "
                "seek fast VMs, shrinking the mean per-task time; Base Test "
                "and RBS spread by count and stay lower (paper order: base "
                "< RBS < HBO < ACO; the ACO/HBO internal order is noise-"
                "level here, see EXPERIMENTS.md)"
            ),
        ),
        ExperimentDefinition(
            experiment_id="fig6d",
            title="Processing cost, heterogeneous",
            metric="total_cost",
            ylabel="processing cost",
            scenario_kind="heterogeneous",
            engine="des",
            expectation="HBO lowest; the other three close together above it",
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentDefinition:
    """Look up an experiment by id."""
    try:
        return EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def aggregate(
    definition: ExperimentDefinition,
    records: list[SweepRecord],
    vm_counts: list[int],
) -> FigureData:
    """Reduce sweep records to per-(scheduler, x) mean and CI series."""
    series: dict[str, list[float]] = {}
    ci: dict[str, list[float]] = {}
    for name in definition.schedulers:
        means: list[float] = []
        cis: list[float] = []
        for v in vm_counts:
            samples = [
                r.metric(definition.metric)
                for r in records
                if r.scheduler == name and r.num_vms == v
            ]
            if not samples:
                raise RuntimeError(
                    f"no records for scheduler={name} num_vms={v} in {definition.experiment_id}"
                )
            stats = summarize(np.array(samples))
            means.append(stats.mean)
            cis.append(stats.ci_halfwidth)
        series[name] = means
        ci[name] = cis
    return FigureData(
        experiment_id=definition.experiment_id,
        title=definition.title,
        xlabel="number of virtual machines",
        ylabel=definition.ylabel,
        x=list(vm_counts),
        series=series,
        ci=ci,
        records=records,
    )


def run_experiment(
    experiment_id: str,
    preset: Preset | str = Preset.QUICK,
    progress: Callable[[str], None] | None = None,
    workers: int | None = None,
    cache=None,
    stream: bool = False,
    chunk_size: int | None = None,
    shards: int | None = None,
) -> FigureData:
    """Execute one paper figure's sweep and aggregate it.

    ``workers`` is forwarded to :func:`repro.experiments.runner.run_sweep`:
    ``None``/0/1 runs serially, ``N >= 2`` fans the sweep cells out over
    ``N`` worker processes with bit-identical records.  ``cache`` (a
    :class:`repro.cache.ResultCache` or directory path) makes the sweep
    incremental: previously computed (scheduler, scale, seed) cells replay
    from disk and only the missing ones run.

    ``stream=True`` replaces the figure's analytic engine with the
    memory-bounded streaming path (chunked scenario generation plus
    per-VM accumulator folding; see docs/performance.md).  Only figures
    declared on the ``"fast"`` engine stream — the DES figures model
    per-event dynamics the fold cannot reproduce and raise
    ``ValueError``.  ``chunk_size`` sets the cloudlets-per-chunk
    granularity (metric values do not depend on it).  ``shards`` splits
    each streaming point into data-parallel shards merged exactly
    (``stream=True`` only; results are shard-count-invariant).
    """
    definition = get_experiment(experiment_id)
    config = definition.config(preset)
    engine = definition.engine
    if stream:
        if engine != "fast":
            raise ValueError(
                f"experiment {definition.experiment_id!r} runs on the "
                f"{engine!r} engine; --stream only applies to the analytic "
                "fast-path figures (fig4a-fig5b)"
            )
        engine = "stream"
    if shards is not None and not stream:
        raise ValueError("shards= requires stream=True")
    records = run_sweep(
        scenario_factory=definition.scenario_factory(
            chunked=stream, chunk_size=chunk_size
        ),
        scheduler_factories=config.make_schedulers(definition.schedulers),
        vm_counts=config.vm_counts,
        num_cloudlets=config.num_cloudlets,
        seeds=config.seeds,
        engine=engine,
        progress=progress,
        workers=workers,
        cache=cache,
        chunk_size=chunk_size,
        shards=shards,
    )
    return aggregate(definition, records, list(config.vm_counts))


__all__ = [
    "FigureData",
    "ExperimentDefinition",
    "ScenarioFamily",
    "EXPERIMENTS",
    "get_experiment",
    "aggregate",
    "run_experiment",
]
