"""Tests for result export (JSON/CSV) and the extended CLI commands."""

import json

import pytest

from repro.analysis.export import (
    RESULT_FIELDS,
    result_row,
    results_to_csv,
    results_to_json,
)
from repro.cli import main
from repro.common.config import SimulationConfig
from repro.core.simulator import run_simulation


@pytest.fixture(scope="module")
def result(request):
    from repro.workloads import build_trace

    trace = build_trace("fpppp", 6000, seed=2)
    return run_simulation(SimulationConfig.paper_default(), trace)


class TestResultToDict:
    def test_contains_all_fields(self, result):
        d = result_row(result)
        for field in RESULT_FIELDS:
            assert field in d
        assert d["trace_name"] == "fpppp"
        assert d["prefetch_good"] == result.prefetch.good

    def test_per_source_keys(self, result):
        d = result_row(result, include_sources=True)
        assert "nsp_issued" in d and "sdp_bad" in d and "software_good" in d

    def test_without_sources(self, result):
        d = result_row(result, include_sources=False)
        assert "nsp_issued" not in d

    def test_infinity_mapped_to_none(self, result):
        # bad_good_ratio can be inf when good == 0; simulate via monkeypatch-free check
        d = result_row(result)
        assert d["bad_good_ratio"] is None or isinstance(d["bad_good_ratio"], float)


class TestBatchExport:
    def test_json_roundtrip(self, result):
        data = json.loads(results_to_json([result, result]))
        assert len(data) == 2
        assert data[0]["cycles"] == result.cycles

    def test_csv_structure(self, result):
        text = results_to_csv([result])
        lines = text.splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == len(lines[1].split(","))
        assert lines[0].startswith("trace_name,")

    def test_csv_empty(self):
        assert results_to_csv([]) == ""


class TestNewCLICommands:
    def test_sweep_history(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # the journal lands here
        assert main(["sweep", "--workload", "fpppp", "--what", "history", "--insts", "5000"]) == 0
        assert "history-size sweep" in capsys.readouterr().out

    def test_export_json(self, capsys):
        assert main(["export", "--workload", "fpppp", "--format", "json", "--insts", "4000"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["trace_name"] == "fpppp"

    def test_export_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["export", "--workload", "fpppp", "--insts", "4000", "--out", str(out)]) == 0
        assert out.read_text().startswith("trace_name,")
