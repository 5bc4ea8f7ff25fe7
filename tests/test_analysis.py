"""Unit tests for analysis metrics, tables, and sweep drivers."""

import pytest

from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    percent_change,
    reduction_percent,
)
from repro.analysis.report import Table
from repro.analysis.sweep import compare_filters, run_workload
from repro.common.config import FilterKind, SimulationConfig


class TestMetrics:
    def test_reduction_percent(self):
        assert reduction_percent(100, 3) == 97.0
        assert reduction_percent(0, 5) == 0.0
        assert reduction_percent(10, 12) == -20.0

    def test_percent_change(self):
        assert percent_change(2.0, 2.2) == pytest.approx(10.0)
        assert percent_change(0, 5) == 0.0

    def test_arithmetic_mean_skips_non_finite(self):
        assert arithmetic_mean([1, 3, float("inf"), float("nan")]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([2, 0, -3]) == 2.0
        assert geometric_mean([]) == 0.0


class TestTable:
    def test_render_with_mean(self):
        t = Table("demo", ["bench", "ipc"])
        t.add_row("a", [1.0])
        t.add_row("b", [3.0])
        text = t.render()
        assert "demo" in text
        assert "mean" in text
        assert "2.000" in text

    def test_row_width_validation(self):
        t = Table("demo", ["bench", "x", "y"])
        with pytest.raises(ValueError):
            t.add_row("a", [1.0])

    def test_special_floats(self):
        t = Table("demo", ["bench", "ratio"], mean_row=False)
        t.add_row("a", [float("inf")])
        t.add_row("b", [float("nan")])
        text = t.render()
        assert "inf" in text and "-" in text


class TestSweepDrivers:
    N = 6000

    def test_run_workload_dispatches_filters(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        r = run_workload("em3d", cfg, n_insts=self.N)
        assert r.filter_name == "pa"

    def test_run_workload_oracle_two_pass(self):
        cfg = SimulationConfig.paper_default(FilterKind.ORACLE)
        r = run_workload("em3d", cfg, n_insts=self.N)
        assert r.filter_name == "oracle"
        # the oracle must remove most bad prefetches
        baseline = run_workload("em3d", SimulationConfig.paper_default(), n_insts=self.N)
        assert r.prefetch.bad < baseline.prefetch.bad

    def test_run_workload_static_two_pass(self):
        cfg = SimulationConfig.paper_default(FilterKind.STATIC)
        r = run_workload("em3d", cfg, n_insts=self.N)
        assert r.filter_name == "static"
        assert r.prefetch.filtered > 0

    def test_compare_filters_keys(self):
        cfg = SimulationConfig.paper_default()
        out = compare_filters("ijpeg", cfg, n_insts=self.N)
        assert set(out) == {FilterKind.NONE, FilterKind.PA, FilterKind.PC}
        assert out[FilterKind.PA].filter_name == "pa"
