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

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "doom", "--insts", "1000"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
