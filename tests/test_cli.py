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

    @pytest.mark.parametrize("command", ["experiment", "table2"])
    def test_paper_tables_have_no_cli_command(self, command, capsys):
        # python -m repro.analysis.experiments is their one driver
        with pytest.raises(SystemExit) as exc:
            main([command, "--insts", "4000"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSweepBackend:
    """A sweep's backend: each setting from its flag, else its env var, else its default."""

    @pytest.fixture
    def build(self, monkeypatch, tmp_path):
        import repro.analysis.sweep as sweep_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        for var in ("REPRO_BACKEND", "REPRO_QUEUE_WORKERS", "REPRO_BROKER"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "env-q"))
        monkeypatch.setenv("REPRO_QUEUE_BATCH", "3")
        monkeypatch.setenv("REPRO_LEASE_TTL", "7")
        built = []

        def capture(*args, backend=None, **kwargs):
            built.append(backend)
            return {}

        monkeypatch.setattr(sweep_mod, "sweep_history_sizes", capture)

        def run(*flags):
            assert main(["sweep", "--workload", "fpppp", "--insts", "2000", *flags]) == 0
            return built.pop()

        return run

    def test_backend_flag_takes_queue_settings_from_the_env(self, build, tmp_path):
        backend = build("--backend", "shared-fs")
        assert backend.queue_dir == tmp_path / "env-q"
        assert backend.batch == 3
        assert backend.lease_ttl == 7.0

    def test_queue_flags_beat_their_env_vars(self, build, tmp_path):
        backend = build(
            "--backend", "shared-fs", "--queue-dir", str(tmp_path / "flag-q"), "--queue-batch", "5"
        )
        assert backend.queue_dir == tmp_path / "flag-q"
        assert backend.batch == 5
        assert backend.lease_ttl == 7.0

    def test_env_backend_accepts_queue_flags(self, build, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "shared-fs")
        backend = build("--queue-dir", str(tmp_path / "flag-q"))
        assert backend.name == "shared-fs"
        assert backend.queue_dir == tmp_path / "flag-q"
        assert backend.batch == 3

    def test_queue_flags_without_a_queue_backend_are_refused(self, build, capsys):
        assert main(["sweep", "--workload", "fpppp", "--queue-batch", "5"]) == 2
        assert "require --backend shared-fs" in capsys.readouterr().err
