"""Paper-shape checks on synthetic figure data."""

from __future__ import annotations

from repro.analysis.compare import check_figure
from repro.experiments.figures import FigureData


def make_data(experiment_id, series, x=(50, 150, 250)):
    return FigureData(
        experiment_id=experiment_id,
        title="t",
        xlabel="x",
        ylabel="y",
        x=list(x),
        series={k: list(v) for k, v in series.items()},
        ci={k: [0.0] * len(x) for k in series},
    )


GOOD_FIG6A = {
    "antcolony": [40.0, 35.0, 30.0],
    "honeybee": [50.0, 45.0, 42.0],
    "basetest": [55.0, 50.0, 45.0],
    "rbs": [56.0, 49.0, 46.0],
}

GOOD_FIG6B = {
    "basetest": [1e-5, 1e-5, 1e-5],
    "rbs": [1e-4, 1e-4, 1e-4],
    "honeybee": [1e-3, 1e-3, 1e-3],
    "antcolony": [1e-1, 1e-1, 1e-1],
}

GOOD_FIG6C = {
    "antcolony": [6.0, 6.2, 6.1],
    "honeybee": [5.9, 6.0, 5.8],
    "basetest": [5.0, 5.1, 5.2],
    "rbs": [4.9, 5.0, 5.1],
}

GOOD_FIG6D = {
    "honeybee": [40.0, 41.0, 42.0],
    "antcolony": [60.0, 61.0, 62.0],
    "basetest": [62.0, 63.0, 64.0],
    "rbs": [61.0, 62.0, 63.0],
}


class TestFig6Checks:
    def test_fig6a_pass(self):
        checks = check_figure(make_data("fig6a", GOOD_FIG6A))
        assert checks and all(c.passed for c in checks)

    def test_fig6a_fails_when_aco_not_best(self):
        bad = dict(GOOD_FIG6A)
        bad["antcolony"] = [100.0, 100.0, 100.0]
        checks = check_figure(make_data("fig6a", bad))
        assert any(not c.passed for c in checks)

    def test_fig6b_ordering_pass_and_fail(self):
        assert all(c.passed for c in check_figure(make_data("fig6b", GOOD_FIG6B)))
        bad = dict(GOOD_FIG6B)
        bad["basetest"] = [1.0, 1.0, 1.0]
        assert not all(c.passed for c in check_figure(make_data("fig6b", bad)))

    def test_fig6c_pass(self):
        assert all(c.passed for c in check_figure(make_data("fig6c", GOOD_FIG6C)))

    def test_fig6c_fails_when_aco_lowest(self):
        bad = dict(GOOD_FIG6C)
        bad["antcolony"] = [1.0, 1.0, 1.0]
        assert not all(c.passed for c in check_figure(make_data("fig6c", bad)))

    def test_fig6d_pass_and_fail(self):
        assert all(c.passed for c in check_figure(make_data("fig6d", GOOD_FIG6D)))
        bad = dict(GOOD_FIG6D)
        bad["honeybee"] = [100.0, 100.0, 100.0]
        assert not all(c.passed for c in check_figure(make_data("fig6d", bad)))


class TestFig45Checks:
    def test_fig4_convergence_pass(self):
        series = {
            "basetest": [25.0, 5.0, 3.0],
            "antcolony": [30.0, 5.5, 3.0],
            "honeybee": [25.0, 5.0, 3.0],
            "rbs": [26.0, 5.2, 3.1],
        }
        assert all(c.passed for c in check_figure(make_data("fig4a", series)))

    def test_fig4_fails_on_divergence(self):
        series = {
            "basetest": [25.0, 5.0, 3.0],
            "antcolony": [60.0, 30.0, 20.0],
            "honeybee": [25.0, 5.0, 3.0],
            "rbs": [26.0, 5.2, 3.1],
        }
        assert not all(c.passed for c in check_figure(make_data("fig4b", series)))

    def test_fig5_decision_cost_pass(self):
        series = {
            "basetest": [1e-5, 1e-5, 1e-5],
            "antcolony": [1.0, 1.0, 1.0],
            "honeybee": [0.01, 0.01, 0.01],
            "rbs": [0.001, 0.001, 0.001],
        }
        assert all(c.passed for c in check_figure(make_data("fig5a", series)))


class TestHelpers:
    def test_unknown_figure_returns_empty(self):
        assert check_figure(make_data("fig9z", {"basetest": [1.0, 1.0, 1.0]})) == []

    def test_check_result_str(self):
        checks = check_figure(make_data("fig6a", GOOD_FIG6A))
        assert "[PASS]" in str(checks[0])
