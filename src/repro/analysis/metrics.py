"""Derived metrics used across the figures.

The paper reports most results as *normalised* quantities (Figure 4
normalises everything to the no-filter good-prefetch count; Figures 10/11
normalise to the 4096-entry table) and as *reduction percentages* ("97% of
bad prefetches are eliminated").  These helpers pin those definitions down;
the experiment suite computes each figure's metrics with them, once.
"""

from __future__ import annotations

import math
from typing import Iterable


def reduction_percent(baseline: float, value: float) -> float:
    """Percentage of ``baseline`` removed: 100 * (baseline - value) / baseline.

    Zero baseline (nothing to reduce) reports 0 by convention, so averaging
    across benchmarks with no prefetches of some class stays meaningful.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def percent_change(baseline: float, value: float) -> float:
    """Signed percentage change (IPC improvements: positive = faster)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline


def arithmetic_mean(values: Iterable[float]) -> float:
    vals = [v for v in values if not math.isinf(v) and not math.isnan(v)]
    return sum(vals) / len(vals) if vals else 0.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geomean over positive finite values (standard for speedup summaries)."""
    vals = [v for v in values if v > 0 and not math.isinf(v)]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
