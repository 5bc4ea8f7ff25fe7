"""Bench regression gate: metric extraction, verdicts, CLI wiring."""

import json

import pytest

from repro.analysis.regression import (
    MetricDelta,
    compare_reports,
    extract_metrics,
    load_baseline,
)


def _engine_report(py=1.0, kernel=3.0):
    return {
        "summary": {
            "python": {"geomean_speedup": py},
            "kernel": {"geomean_speedup": kernel},
        }
    }


def _sweep_report(serial=20.0, two=30.0):
    return {
        "drains": [
            {"label": "serial", "jobs_per_sec": serial},
            {"label": "shared-fs[2w]", "jobs_per_sec": two},
        ]
    }


def _pool_report(serial=1e6, parallel=1.8e6):
    return {"serial_insts_per_sec": serial, "parallel_insts_per_sec": parallel}


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class TestExtractMetrics:
    def test_engine_report_shape(self):
        metrics = extract_metrics(_engine_report())
        assert metrics == {
            "geomean_speedup[python]": 1.0,
            "geomean_speedup[kernel]": 3.0,
        }

    def test_sweep_report_shape(self):
        metrics = extract_metrics(_sweep_report())
        assert metrics == {
            "jobs_per_sec[serial]": 20.0,
            "jobs_per_sec[shared-fs[2w]]": 30.0,
        }

    def test_pool_report_shape(self):
        metrics = extract_metrics(_pool_report())
        assert metrics == {
            "serial_insts_per_sec": 1e6,
            "parallel_insts_per_sec": 1.8e6,
        }

    def test_garbage_values_are_ignored(self):
        report = {
            "summary": {"python": {"geomean_speedup": -1.0}, "broken": "nope"},
            "drains": [{"label": "", "jobs_per_sec": 5.0}, {"jobs_per_sec": "fast"}],
            "serial_insts_per_sec": 0,
        }
        assert extract_metrics(report) == {}

    def test_empty_report(self):
        assert extract_metrics({}) == {}


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
class TestVerdict:
    def test_identical_reports_pass(self):
        report = compare_reports(_sweep_report(), _sweep_report(), max_regress=0.1)
        assert report.ok and report.geomean_ratio == pytest.approx(1.0)

    def test_improvement_passes(self):
        report = compare_reports(
            _sweep_report(serial=25.0, two=40.0), _sweep_report(), max_regress=0.1
        )
        assert report.ok and report.geomean_ratio > 1.0

    def test_regression_beyond_threshold_fails(self):
        report = compare_reports(
            _sweep_report(serial=10.0, two=15.0), _sweep_report(), max_regress=0.25
        )
        assert report.geomean_ratio == pytest.approx(0.5)
        assert not report.ok

    def test_regression_within_threshold_passes(self):
        report = compare_reports(
            _sweep_report(serial=18.0, two=27.0), _sweep_report(), max_regress=0.25
        )
        assert report.geomean_ratio == pytest.approx(0.9)
        assert report.ok

    def test_geomean_means_one_noisy_metric_cannot_sink_the_gate(self):
        # one metric halves, three hold: geomean ~0.84 clears a 25% gate
        current = _engine_report(py=0.5, kernel=3.0)
        current["drains"] = _sweep_report()["drains"]
        baseline = _engine_report(py=1.0, kernel=3.0)
        baseline["drains"] = _sweep_report()["drains"]
        report = compare_reports(current, baseline, max_regress=0.25)
        assert len(report.deltas) == 4
        assert report.ok

    def test_zero_comparable_metrics_fails_not_passes(self):
        report = compare_reports(_sweep_report(), _engine_report())
        assert not report.ok
        assert report.geomean_ratio == 0.0
        assert len(report.uncomparable) == 4
        assert "different bench mode" in report.render()

    def test_one_sided_metrics_are_listed_not_dropped(self):
        current = _sweep_report()
        current["serial_insts_per_sec"] = 1e6
        report = compare_reports(current, _sweep_report())
        assert report.ok  # shared metrics still compare
        assert report.uncomparable == ["serial_insts_per_sec"]
        assert "one side only" in report.render()

    def test_max_regress_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            compare_reports({}, {}, max_regress=1.0)
        with pytest.raises(ValueError):
            compare_reports({}, {}, max_regress=-0.1)

    def test_render_shows_percent_change_per_metric(self):
        report = compare_reports(
            _sweep_report(serial=22.0, two=30.0), _sweep_report(), max_regress=0.25
        )
        text = report.render()
        assert "jobs_per_sec[serial]" in text and "+10.0%" in text
        assert "regression gate: ok" in text

    def test_delta_ratio(self):
        delta = MetricDelta("m", baseline=4.0, current=5.0)
        assert delta.ratio == pytest.approx(1.25)
        assert "+25.0%" in delta.render()


# ----------------------------------------------------------------------
# Baseline loading
# ----------------------------------------------------------------------
class TestLoadBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(json.dumps(_sweep_report()))
        assert load_baseline(path) == _sweep_report()

    def test_missing_file_fails_with_context(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_malformed_json_fails_with_context(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read baseline"):
            load_baseline(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_baseline(path)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliGate:
    def test_bench_baseline_gate_passes_against_itself(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main([
            "bench", "--runs", "1", "--insts", "2000",
            "--engines", "pipeline", "kernel", "--workload", "em3d", "--out", str(out),
        ]) == 0
        assert main([
            "bench", "--runs", "1", "--insts", "2000",
            "--engines", "pipeline", "kernel", "--workload", "em3d", "--out", str(tmp_path / "again.json"),
            "--baseline", str(out), "--max-regress", "0.99",
        ]) == 0
        assert "regression gate: ok" in capsys.readouterr().out

    def test_bench_baseline_gate_fails_on_fabricated_speedup(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main([
            "bench", "--runs", "1", "--insts", "2000",
            "--engines", "pipeline", "kernel", "--workload", "em3d", "--out", str(out),
        ]) == 0
        inflated = json.loads(out.read_text())
        for block in inflated["summary"].values():
            block["geomean_speedup"] = block["geomean_speedup"] * 100.0
        baseline = tmp_path / "inflated.json"
        baseline.write_text(json.dumps(inflated))
        assert main([
            "bench", "--runs", "1", "--insts", "2000",
            "--engines", "pipeline", "kernel", "--workload", "em3d", "--out", str(tmp_path / "again.json"),
            "--baseline", str(baseline), "--max-regress", "0.25",
        ]) == 1
        assert "regression gate: FAIL" in capsys.readouterr().out
