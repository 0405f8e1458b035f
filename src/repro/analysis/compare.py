"""Paper-shape checks.

The reproduction does not chase the paper's absolute numbers (Java testbed
vs Python simulator) but its *shapes*: who wins each metric, orderings, and
growth directions.  Each figure gets a programmatic check; EXPERIMENTS.md
and the slow test-suite both run them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figures import FigureData


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one qualitative expectation."""

    figure: str
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.figure}/{self.name}: {self.detail}"


def _mean_over_tail(values: list[float], tail: int = 3) -> float:
    """Mean of the last ``tail`` sweep points (robust ordering comparisons)."""
    return float(np.mean(values[-tail:]))


def _check(figure: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(figure=figure, name=name, passed=bool(passed), detail=detail)


def check_fig4(data: FigureData) -> list[CheckResult]:
    """Homogeneous makespan: decreasing in VM count, all near Base Test."""
    checks = []
    base = data.series["basetest"]
    checks.append(
        _check(
            data.experiment_id,
            "basetest-decreasing",
            base[0] > base[-1],
            f"Base Test makespan falls from {base[0]:.3g} to {base[-1]:.3g} as VMs grow",
        )
    )
    for name, ys in data.series.items():
        if name == "basetest":
            continue
        ratio = _mean_over_tail(ys) / max(_mean_over_tail(base), 1e-12)
        checks.append(
            _check(
                data.experiment_id,
                f"{name}-converges-to-basetest",
                ratio < 1.5,
                f"{name} tail makespan is {ratio:.2f}x Base Test (expect ≈1, <1.5)",
            )
        )
    return checks


def check_fig5(data: FigureData) -> list[CheckResult]:
    """Homogeneous scheduling time: Base Test far below the bio-inspired."""
    checks = []
    base = _mean_over_tail(data.series["basetest"])
    for name, ys in data.series.items():
        if name == "basetest":
            continue
        ratio = _mean_over_tail(ys) / max(base, 1e-12)
        checks.append(
            _check(
                data.experiment_id,
                f"{name}-pays-decision-cost",
                ratio > 5,
                f"{name} scheduling time is {ratio:.1f}x Base Test (expect >>1)",
            )
        )
    return checks


def check_fig6a(data: FigureData) -> list[CheckResult]:
    """Heterogeneous makespan: ACO best; HBO <= Base Test; RBS ≈ Base Test."""
    aco = _mean_over_tail(data.series["antcolony"])
    hbo = _mean_over_tail(data.series["honeybee"])
    base = _mean_over_tail(data.series["basetest"])
    rbs = _mean_over_tail(data.series["rbs"])
    return [
        _check(
            data.experiment_id,
            "aco-best-makespan",
            aco < hbo and aco < base and aco < rbs,
            f"ACO {aco:.3g} vs HBO {hbo:.3g}, Base {base:.3g}, RBS {rbs:.3g}",
        ),
        _check(
            data.experiment_id,
            "hbo-beats-basetest",
            hbo < base * 1.05,
            f"HBO {hbo:.3g} vs Base Test {base:.3g} (expect slightly better)",
        ),
        _check(
            data.experiment_id,
            "rbs-close-to-basetest",
            0.6 < rbs / base < 1.4,
            f"RBS/Base Test ratio {rbs / base:.2f} (expect ≈1 with fluctuations)",
        ),
    ]


def check_fig6b(data: FigureData) -> list[CheckResult]:
    """Heterogeneous scheduling time: Base Test < RBS < HBO < ACO."""
    order = ["basetest", "rbs", "honeybee", "antcolony"]
    values = [_mean_over_tail(data.series[name]) for name in order]
    detail = ", ".join(f"{n}={v:.3g}s" for n, v in zip(order, values))
    return [
        _check(
            data.experiment_id,
            "scheduling-time-ordering",
            all(values[i] < values[i + 1] for i in range(len(values) - 1)),
            detail,
        )
    ]


def check_fig6c(data: FigureData) -> list[CheckResult]:
    """Heterogeneous imbalance: metaheuristics above Base Test / RBS.

    The paper's exact ordering is base < RBS < HBO < ACO; what is robustly
    reproducible is the split — the fast-VM-seeking metaheuristics (ACO,
    HBO) create more per-task execution-time spread than the count-spreading
    policies (Base Test, RBS).  The internal ACO-vs-HBO order is noise-level
    in our implementation and is recorded as a known deviation in
    EXPERIMENTS.md.  Means are taken over the whole sweep: at the sparse end
    (more VMs than cloudlets) the metric degenerates for every scheduler.
    """
    means = {name: float(np.mean(ys)) for name, ys in data.series.items()}
    spreaders = max(means["basetest"], means["rbs"])
    return [
        _check(
            data.experiment_id,
            "aco-above-spreading-policies",
            means["antcolony"] > spreaders,
            f"ACO {means['antcolony']:.3g} vs max(Base, RBS)={spreaders:.3g}",
        ),
        _check(
            data.experiment_id,
            "metaheuristics-worst",
            min(means["antcolony"], means["honeybee"]) > min(means["basetest"], means["rbs"]),
            f"ACO/HBO ({means['antcolony']:.3g}/{means['honeybee']:.3g}) above "
            f"min(Base, RBS)={min(means['basetest'], means['rbs']):.3g}",
        ),
    ]


def check_fig6d(data: FigureData) -> list[CheckResult]:
    """Heterogeneous processing cost: HBO lowest; others close together."""
    hbo = _mean_over_tail(data.series["honeybee"])
    others = {
        name: _mean_over_tail(ys)
        for name, ys in data.series.items()
        if name != "honeybee"
    }
    best_other = min(others.values())
    spread = max(others.values()) / max(best_other, 1e-12)
    return [
        _check(
            data.experiment_id,
            "hbo-cheapest",
            hbo < best_other,
            f"HBO {hbo:.4g} vs min(other)={best_other:.4g}",
        ),
        _check(
            data.experiment_id,
            "others-clustered",
            spread < 1.2,
            f"non-HBO costs within {spread:.2f}x of each other (expect close)",
        ),
    ]


_CHECKERS = {
    "fig4a": check_fig4,
    "fig4b": check_fig4,
    "fig5a": check_fig5,
    "fig5b": check_fig5,
    "fig6a": check_fig6a,
    "fig6b": check_fig6b,
    "fig6c": check_fig6c,
    "fig6d": check_fig6d,
}


def check_figure(data: FigureData) -> list[CheckResult]:
    """Run the paper-shape checks registered for ``data``'s figure."""
    checker = _CHECKERS.get(data.experiment_id)
    if checker is None:
        return []
    return checker(data)


__all__ = ["CheckResult", "check_figure"]
