"""Tests for the experiment registry (small-scale runs of each experiment)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentResult, ExperimentSuite, markdown_report


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(n_insts=8000, warmup=3000, seed=1)


class TestRegistry:
    def test_all_ids_present(self, suite):
        ids = set(suite.registry())
        expected = {"t1", "t2"} | {f"f{i}" for i in (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)} | {
            "s1",
            "s2",
            "s3",
        }
        assert ids == expected

    def test_unknown_id_raises(self, suite):
        with pytest.raises(ValueError):
            suite.run_experiment("f99")

    def test_unsupported_cache_size(self, suite):
        with pytest.raises(ValueError):
            suite.base_config(64)


class TestCheapExperiments:
    def test_table1(self, suite):
        r = suite.run_experiment("t1")
        assert isinstance(r, ExperimentResult)
        assert "128 entries" in r.table.render()

    def test_table2(self, suite):
        r = suite.run_experiment("t2")
        text = r.table.render()
        assert "em3d" in text and "mcf" in text
        assert "mean |L1 - paper|" in r.summary

    def test_figure1_and_2_share_runs(self, suite):
        before = len(suite._runs)
        suite.run_experiment("f1")
        mid = len(suite._runs)
        suite.run_experiment("f2")
        assert len(suite._runs) == mid  # f2 reused f1's simulations
        assert mid > before

    def test_figure6_summary_keys(self, suite):
        r = suite.run_experiment("f6")
        assert "mean speedup PA %" in r.summary
        assert "mean speedup PC %" in r.summary

    def test_render_contains_paper_reference(self, suite):
        r = suite.run_experiment("f1")
        text = r.render()
        assert "paper:" in text
        assert r.exp_id in text


class TestMarkdownReport:
    def test_report_structure(self, suite):
        results = [suite.run_experiment("t1"), suite.run_experiment("f1")]
        md = markdown_report(results, suite)
        assert md.startswith("# EXPERIMENTS")
        assert "## T1" in md and "## F1" in md
        assert "```" in md

    def test_cli_entry(self, tmp_path):
        from repro.analysis.experiments import main

        out = tmp_path / "exp.md"
        assert main(["--insts", "5000", "--ids", "t1", "--out", str(out)]) == 0
        assert out.read_text().startswith("# EXPERIMENTS")

    def test_cli_ids_match_case_insensitively(self, capsys):
        from repro.analysis.experiments import main

        assert main(["--ids", "T1", "--insts", "2000", "--no-cache"]) == 0
        assert "[T1] System configuration" in capsys.readouterr().out

    @pytest.mark.parametrize("ids", [["f99"], ["f1", "f99"]])
    def test_cli_unknown_id_is_a_usage_error_before_any_job(self, ids, monkeypatch, capsys):
        from repro.analysis import experiments

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran before the ids were checked")

        monkeypatch.setattr(experiments, "run_jobs", no_jobs)
        with pytest.raises(SystemExit) as exc:
            experiments.main(["--ids", *ids, "--insts", "2000", "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'f99'" in err and "'t2'" in err

    def test_cli_rejects_negative_workers(self, capsys):
        from repro.analysis.experiments import main

        with pytest.raises(SystemExit) as exc:
            main(["--ids", "t1", "--insts", "2000", "--no-cache", "--workers", "-3"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--insts", "-5"), ("--insts", "0"), ("--warmup", "-1")]
    )
    def test_cli_rejects_bad_run_lengths_before_any_job(self, flag, value, monkeypatch, capsys):
        from repro.analysis import experiments

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran before the run length was checked")

        monkeypatch.setattr(experiments, "run_jobs", no_jobs)
        argv = ["--ids", "t2", "--insts", "2000", "--no-cache", flag, value]
        with pytest.raises(SystemExit) as exc:
            experiments.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_module_entry_runs_without_a_runpy_warning(self):
        """The documented regenerate command: ``repro.analysis`` must not
        import the module before ``-m`` runs it (runpy warns if it does)."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.experiments",
             "--ids", "t1", "--insts", "2000", "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
