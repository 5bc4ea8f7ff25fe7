"""Tests for the repro-sim command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_config_command(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "Reorder Buffer" in out
        assert "History table" in out

    def test_run_command(self, capsys):
        assert main(["run", "--workload", "fpppp", "--insts", "4000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "prefetches good" in out

    def test_run_with_filter(self, capsys):
        assert main(["run", "--workload", "fpppp", "--filter", "pc", "--insts", "4000"]) == 0
        assert "pc" in capsys.readouterr().out

    def test_run_32kb(self, capsys):
        assert main(["run", "--workload", "fpppp", "--l1-kb", "32", "--insts", "4000"]) == 0

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "fpppp", "--insts", "4000"]) == 0
        out = capsys.readouterr().out
        assert "pa" in out and "pc" in out and "none" in out

    def test_bench_engines_writes_report(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--engines", "pipeline", "kernel",
            "--workload", "fpppp", "--insts", "4000", "--out", str(out),
        ]) == 0
        import json

        report = json.loads(out.read_text())
        assert report["reference_engine"] == "pipeline"
        assert len(report["rows"]) == 3  # one workload x three filters
        assert report["trace_store"][0]["cold_seconds"] > 0
        assert "kernel" in report["summary"]

    def test_bench_sweep_report_carries_a_health_block(self, capsys, tmp_path):
        out = tmp_path / "bench_sweep.json"
        assert main([
            "bench", "--sweep", "--runs", "4", "--insts", "2000",
            "--workload", "em3d", "--out", str(out), "--no-cache",
        ]) == 0
        import json

        report = json.loads(out.read_text())
        assert report["results_identical"] is True
        # quarantines and wire trouble are invisible in throughput
        # numbers; the health block surfaces them even when
        # (especially when) all zero
        assert report["health"] == {
            "queue_quarantined": 0,
            "queue_poisoned": 0,
            "net_reconnects": 0,
            "net_retried_calls": 0,
            "net_replayed_ops": 0,
            "net_broker_restarts": 0,
        }
        # serial + shared-fs at 1 and 2 workers + the tcp broker drain
        assert len(report["drains"]) == 4
        tcp = report["drains"][-1]
        assert tcp["label"] == "tcp[2w]"
        assert tcp["transport"]["broker_restarts"] == 0

    def test_bench_rejects_unknown_engine(self, capsys):
        # Validated manually (not argparse choices) so the comma-separated
        # form gets the same one-line configuration error, exit code 2.
        assert main(["bench", "--engines", "warp-drive", "--insts", "1000"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "doom", "--insts", "1000"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
