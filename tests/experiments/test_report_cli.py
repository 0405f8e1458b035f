"""Report rendering and the CLI entry point."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import build_parser, main
from repro.experiments.figures import FigureData
from repro.experiments.report import figure_rows, render_figure, save_figure


@pytest.fixture
def figure_data() -> FigureData:
    return FigureData(
        experiment_id="fig6d",
        title="Processing cost, heterogeneous",
        xlabel="number of virtual machines",
        ylabel="processing cost",
        x=[50, 150],
        series={
            "antcolony": [100.0, 95.0],
            "basetest": [102.0, 98.0],
            "honeybee": [60.0, 55.0],
            "rbs": [101.0, 97.0],
        },
        ci={
            "antcolony": [1.0, 1.0],
            "basetest": [0.0, 0.0],
            "honeybee": [2.0, 2.0],
            "rbs": [1.5, 1.5],
        },
    )


class TestReport:
    def test_figure_rows_wide_format(self, figure_data):
        rows = figure_rows(figure_data)
        assert rows[0]["num_vms"] == 50
        assert rows[0]["honeybee"] == 60.0
        assert len(rows) == 2

    def test_render_contains_table_plot_and_checks(self, figure_data):
        text = render_figure(figure_data)
        assert "fig6d" in text
        assert "num_vms" in text
        assert "A=antcolony" in text
        assert "hbo-cheapest" in text  # shape check ran
        assert "[PASS]" in text

    def test_save_figure_writes_csv(self, figure_data, tmp_path):
        path = save_figure(figure_data, tmp_path)
        assert path.name == "fig6d.csv"
        content = path.read_text()
        assert "scheduler" in content
        assert "honeybee" in content


class TestCli:
    def test_list_target(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig6d" in out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.preset == "quick"
        assert not args.verbose

    def test_end_to_end_tiny(self, monkeypatch, tmp_path, capsys):
        from repro.experiments import figures as figures_module
        from repro.experiments.scenarios import SweepConfig

        tiny = SweepConfig(
            vm_counts=(4,),
            num_cloudlets=8,
            seeds=(0,),
            scheduler_kwargs={"antcolony": {"num_ants": 2, "max_iterations": 1}},
        )
        monkeypatch.setattr(
            figures_module.ExperimentDefinition, "config", lambda self, preset: tiny
        )
        assert main(["fig6d", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig6d" in out
        assert (tmp_path / "fig6d.csv").exists()


class TestCompareTarget:
    def test_compare_prints_table(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--schedulers",
                    "basetest,greedy-mct",
                    "--vms",
                    "6",
                    "--cloudlets",
                    "30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "basetest" in out and "greedy-mct" in out
        assert "makespan_s" in out

    def test_compare_homogeneous(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--schedulers",
                    "basetest",
                    "--scenario",
                    "homogeneous",
                    "--vms",
                    "4",
                    "--cloudlets",
                    "20",
                ]
            )
            == 0
        )
        assert "homogeneous" in capsys.readouterr().out

    def test_compare_unknown_scheduler(self, capsys):
        assert main(["compare", "--schedulers", "quantum"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err


class TestStormTarget:
    STORM_ARGS = [
        "storm",
        "--vms", "6",
        "--cloudlets", "24",
        "--policies", "greedy-mct",
        "--seeds", "0",
    ]

    def test_storm_runs_and_saves_report(self, tmp_path, capsys):
        assert main([*self.STORM_ARGS, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "controlled_degradation" in out
        assert "uncontrolled" in out
        assert (tmp_path / "storm.json").exists()

    def test_storm_control_off_is_inert(self, tmp_path, capsys):
        assert main(
            [*self.STORM_ARGS, "--control", "off", "--out", str(tmp_path)]
        ) == 0
        import json as _json

        payload = _json.loads((tmp_path / "storm.json").read_text())
        assert payload["control"]["scale_up_backlog"] is None

    def test_storm_custom_timeline_file(self, tmp_path, capsys):
        import json as _json

        from repro.workloads.timeline import Timeline, VmFault

        timeline = Timeline(
            base_rate=8.0,
            entries=(VmFault(at="+2s", vm_index=1, downtime="4s"),),
            name="from-file",
        )
        spec = tmp_path / "timeline.json"
        spec.write_text(_json.dumps(timeline.to_dict()))
        assert main(
            [*self.STORM_ARGS, "--timeline", str(spec), "--out", str(tmp_path)]
        ) == 0
        payload = _json.loads((tmp_path / "storm.json").read_text())
        assert payload["timeline"] == "from-file"


class TestReportRendersChaosArtifacts:
    def test_storm_json_round_trips_through_report(self, tmp_path, capsys):
        assert main([
            "storm", "--vms", "6", "--cloudlets", "24",
            "--policies", "greedy-mct", "--seeds", "0",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "storm.json")]) == 0
        out = capsys.readouterr().out
        assert "storm-report" in out
        assert "controlled_degradation" in out
        assert "mean_degradation" in out

    def test_chaos_json_renders_rows(self, tmp_path, capsys):
        from repro.cloud.chaos import ChaosConfig, run_chaos_suite
        from repro.schedulers import RoundRobinScheduler
        from repro.workloads.heterogeneous import heterogeneous_scenario

        report = run_chaos_suite(
            heterogeneous_scenario(5, 20, seed=1),
            {"rr": RoundRobinScheduler()},
            seeds=(0,),
            config=ChaosConfig(num_vm_failures=1, num_stragglers=0),
        )
        path = report.save(tmp_path / "chaos.json")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chaos-report" in out
        assert "resched_degradation" in out


class TestCacheTarget:
    """``cache stats|prune|verify`` over a small real cache."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.cache import ResultCache, cache_key_manifest
        from repro.experiments.runner import run_point
        from repro.schedulers import RoundRobinScheduler
        from repro.workloads.heterogeneous import heterogeneous_scenario

        cache = ResultCache(tmp_path / "cache")
        scenario = heterogeneous_scenario(4, 16, seed=0)
        for seed in (0, 1):
            manifest = cache_key_manifest(scenario, RoundRobinScheduler(), seed, "fast")
            result = run_point(scenario, RoundRobinScheduler(), seed=seed, engine="fast")
            cache.put(manifest.fingerprint(), result, manifest)
        return cache.root

    def test_stats_and_prune_exit_zero(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries:     2" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

    def test_verify_clean_cache(self, cache_dir, capsys):
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "all 2 entries verify" in capsys.readouterr().out

    def test_verify_tampered_entry_prints_its_key(self, cache_dir, capsys):
        import json

        from repro.cache import ResultCache

        key = next(ResultCache(cache_dir).iter_keys())
        meta_path = ResultCache(cache_dir).entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["key"] = "0" * 64  # mis-keyed entry
        meta_path.write_text(json.dumps(meta))
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        captured = capsys.readouterr()
        assert f"{key}: recorded key" in captured.out
        assert "(1 problem(s) found)" in captured.err
