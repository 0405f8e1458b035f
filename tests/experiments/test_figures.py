"""Figure definitions and aggregation."""

from __future__ import annotations

import pytest

from repro.experiments.figures import (
    EXPERIMENTS,
    FigureData,
    aggregate,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import SweepRecord
from repro.experiments.scenarios import Preset, preset_config


def make_records(schedulers=("basetest", "rbs"), vm_counts=(4, 8), seeds=(0, 1)):
    records = []
    for name in schedulers:
        for v in vm_counts:
            for s in seeds:
                records.append(
                    SweepRecord(
                        scheduler=name,
                        num_vms=v,
                        num_cloudlets=10,
                        seed=s,
                        scheduling_time=0.001 * v,
                        makespan=100.0 / v + s,
                        time_imbalance=1.0,
                        total_cost=50.0,
                        events_processed=1,
                    )
                )
    return records


class TestDefinitions:
    def test_all_eight_figures_defined(self):
        assert set(EXPERIMENTS) == {
            "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig6d",
        }

    def test_every_definition_has_expectation_and_config(self):
        for experiment_id, definition in EXPERIMENTS.items():
            assert definition.expectation
            for preset in Preset:
                config = definition.config(preset)
                assert config.vm_counts
                assert config.num_cloudlets > 0
                assert config.seeds

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("FIG6A").experiment_id == "fig6a"

    def test_get_experiment_unknown(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("fig99")

    def test_scenario_factories(self):
        homog = EXPERIMENTS["fig4a"].scenario_factory()(4, 6, 0)
        hetero = EXPERIMENTS["fig6a"].scenario_factory()(4, 6, 0)
        assert "homogeneous" in homog.name
        assert "heterogeneous" in hetero.name

    def test_preset_config_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            preset_config("fig7x", Preset.QUICK)


class TestAggregate:
    def test_series_are_means_over_seeds(self):
        import dataclasses

        definition = dataclasses.replace(
            EXPERIMENTS["fig6a"], schedulers=("basetest", "rbs")
        )
        records = make_records()
        data = aggregate(definition, records, [4, 8])
        # mean over seeds 0,1 of 100/v + s = 100/v + 0.5
        assert data.series["basetest"] == pytest.approx([25.5, 13.0])
        assert data.ci["basetest"][0] > 0
        assert data.x == [4, 8]

    def test_missing_records_detected(self):
        import dataclasses

        definition = dataclasses.replace(
            EXPERIMENTS["fig6a"], schedulers=("basetest", "honeybee")
        )
        with pytest.raises(RuntimeError, match="no records"):
            aggregate(definition, make_records(), [4, 8])

    def test_figure_data_helpers(self):
        import dataclasses

        definition = dataclasses.replace(
            EXPERIMENTS["fig6a"], schedulers=("basetest", "rbs")
        )
        data = aggregate(definition, make_records(), [4, 8])
        assert data.series["basetest"][-1] == pytest.approx(13.0)
        rows = data.to_rows()
        assert len(rows) == 4  # 2 schedulers x 2 x-points
        assert rows[0]["experiment"] == "fig6a"


class TestRunExperimentSmall:
    def test_custom_tiny_sweep(self, monkeypatch):
        # Shrink the quick preset so the end-to-end path stays fast.
        from repro.experiments import figures as figures_module
        from repro.experiments.scenarios import SweepConfig

        tiny = SweepConfig(
            vm_counts=(4, 6),
            num_cloudlets=12,
            seeds=(0,),
            scheduler_kwargs={"antcolony": {"num_ants": 2, "max_iterations": 1}},
        )
        monkeypatch.setattr(
            figures_module.ExperimentDefinition,
            "config",
            lambda self, preset: tiny,
        )
        data = run_experiment("fig6a", preset="quick")
        assert isinstance(data, FigureData)
        assert data.x == [4, 6]
        assert set(data.series) == {"antcolony", "basetest", "honeybee", "rbs"}
        assert all(v > 0 for v in data.series["basetest"])
