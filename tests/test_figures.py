"""Unit tests for text-mode figure rendering."""

import math

from repro.analysis.figures import (
    grouped_bars,
    series_lines,
    sparkline,
)


class TestGroupedBars:
    def test_renders_all_rows_and_series(self):
        text = grouped_bars(
            "demo",
            {"em3d": {"none": 1.0, "PA": 2.0}, "mcf": {"none": 0.5, "PA": 0.6}},
        )
        assert "demo" in text
        assert "em3d" in text and "mcf" in text
        assert "none" in text and "PA" in text

    def test_bar_lengths_proportional(self):
        text = grouped_bars("t", {"a": {"x": 1.0, "y": 2.0}}, width=10)
        lines = [l for l in text.splitlines() if "█" in l]
        assert len(lines) == 2
        assert lines[0].count("█") < lines[1].count("█")

    def test_handles_inf(self):
        text = grouped_bars("t", {"a": {"x": float("inf"), "y": 1.0}})
        assert "inf" in text

    def test_empty(self):
        assert grouped_bars("t", {}) == "t"

    def test_zero_values(self):
        text = grouped_bars("t", {"a": {"x": 0.0}})
        assert "0.000" in text


class TestSeriesLines:
    def test_layout(self):
        text = series_lines("sweep", {"em3d": [1.0, 2.0, 3.0]}, ["1K", "2K", "4K"])
        assert "1K" in text and "4K" in text
        assert "em3d" in text

    def test_empty(self):
        assert series_lines("t", {}, []) == "t"


class TestSparkline:
    def test_monotone(self):
        s = sparkline([1, 2, 3, 4])
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat(self):
        assert len(sparkline([5, 5, 5])) == 3

    def test_nan_marked(self):
        assert "?" in sparkline([1.0, math.nan, 2.0])

    def test_empty(self):
        assert sparkline([]) == ""
