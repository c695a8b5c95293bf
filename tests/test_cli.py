"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.report import RunReport


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "ws"
        assert args.load == 1.2

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nonexistent"])


class TestOverheadCommand:
    def test_prints_budget(self, capsys):
        assert main(["overhead", "--ports", "4"]) == 0
        out = capsys.readouterr().out
        assert "SRAM" in out
        assert "feasible" in out

    def test_infeasible_config_flagged(self, capsys):
        # A tiny set period (small k, T=1) overwhelms the polling budget.
        assert main(["overhead", "--k", "6", "--T", "1", "--m0", "4"]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out


class TestRunCommand:
    def test_end_to_end(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "ws",
                "--duration-ms",
                "6",
                "--load",
                "1.3",
                "--victims",
                "1",
                "--k",
                "10",
                "--T",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "direct culprits" in out
        assert "original culprits" in out


class TestScenarioCommand:
    def test_microburst_with_plot(self, capsys):
        code = main(
            ["scenario", "microburst", "--plot", "--victims", "1", "--k", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queue depth over time" in out
        assert "direct culprits" in out


class TestAdviseCommand:
    def test_clean_config(self, capsys):
        code = main(
            ["advise", "--m0", "10", "--packet-interval", "1200"]
        )
        assert code == 0
        assert "looks sound" in capsys.readouterr().out

    def test_bad_config_nonzero_exit(self, capsys):
        # m0=6 with MTU packet spacing starves the deep windows: error.
        code = main(["advise", "--m0", "6", "--packet-interval", "1200"])
        assert code == 1
        assert "deep-windows-starved" in capsys.readouterr().out

    def test_depth_and_horizon_flags(self, capsys):
        code = main(
            [
                "advise",
                "--m0",
                "10",
                "--packet-interval",
                "1200",
                "--max-depth",
                "100000",
                "--horizon-ms",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qm-overflow" in out
        assert "horizon-spans-snapshots" in out


class TestStatsCommand:
    """``repro run --format summary|json|prom``: the run's RunReport."""

    ARGS = ["--workload", "ws", "--duration-ms", "2", "--k", "10"]

    def test_summary_format(self, capsys):
        assert main(["run", *self.ARGS, "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "time windows" in out
        assert "queue monitor" in out

    def test_json_counters_identical_across_engines(self, capsys):
        reports = {}
        for engine in ("scalar", "fused"):
            code = main(
                ["run", *self.ARGS, "--format", "json", "--engine", engine]
            )
            assert code == 0
            reports[engine] = json.loads(capsys.readouterr().out)
        # Window-level collision/pass counters must not depend on the
        # ingest engine (only the timing metrics may differ).
        assert (
            reports["scalar"]["time_windows"] == reports["fused"]["time_windows"]
        )
        assert reports["scalar"]["queue_monitor"] == reports["fused"]["queue_monitor"]
        assert reports["scalar"]["filter"] == reports["fused"]["filter"]

    def test_prometheus_format(self, capsys):
        assert main(["run", *self.ARGS, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE pq_tw_inserts_total counter" in out
        assert 'pq_tw_inserts_total{level="0"}' in out

    def test_metrics_out_writes_loadable_report(self, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        assert (
            main(["run", *self.ARGS, "--format", "summary", "--metrics-out", path])
            == 0
        )
        report = RunReport.load(path)
        assert report.section("packets")["seen"] > 0

    def test_replays_saved_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pqtrace")
        assert main(["trace", trace_path, "--duration-ms", "2"]) == 0
        capsys.readouterr()
        assert main(["run", trace_path, "--k", "10", "--format", "summary"]) == 0
        assert "packets seen" in capsys.readouterr().out


class TestMetricsOutFlag:
    def test_run_metrics_out(self, tmp_path, capsys):
        path = str(tmp_path / "run-report.json")
        code = main(
            [
                "run",
                "--workload",
                "ws",
                "--duration-ms",
                "2",
                "--k",
                "10",
                "--metrics-out",
                path,
            ]
        )
        assert code == 0
        assert "wrote RunReport" in capsys.readouterr().out
        report = RunReport.load(path)
        # The attached registry's poll samples are serialised too.
        assert report.section("metrics") is not None

    def test_scenario_metrics_out(self, tmp_path, capsys):
        path = str(tmp_path / "scenario-report.json")
        code = main(
            ["scenario", "microburst", "--k", "10", "--metrics-out", path]
        )
        assert code == 0
        assert RunReport.load(path).section("packets")["seen"] > 0


class TestTraceCommand:
    def test_generate_and_inspect(self, tmp_path, capsys):
        path = str(tmp_path / "t.pqtrace")
        assert main(
            ["trace", path, "--workload", "ws", "--duration-ms", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["trace", path, "--inspect"]) == 0
        out = capsys.readouterr().out
        assert "packets" in out and "Gbps" in out
