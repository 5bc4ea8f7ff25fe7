"""Text-mode figure rendering.

The paper's results are bar charts; this module renders the same data as
unicode bar charts in the terminal so every figure can be *seen*, not just
tabulated, without a plotting dependency.  Two chart shapes cover all 14
figures:

* :func:`grouped_bars` — benchmarks on the y-axis, one bar per scenario
  (Figures 1, 2, 4-9, 13-16),
* :func:`series_lines` — one row per benchmark, one column per sweep point
  (Figures 10-12), rendered as banded intensity.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"
_FULL = "█"


def _bar(value: float, scale: float, width: int) -> str:
    """Render ``value`` as a bar of at most ``width`` cells."""
    if scale <= 0 or value <= 0:
        return ""
    cells = value / scale * width
    if math.isinf(cells):
        return _FULL * width + "∞"
    whole = int(cells)
    frac = cells - whole
    out = _FULL * min(whole, width)
    if whole < width and frac > 0:
        out += _BLOCKS[int(frac * 8)]
    return out


def grouped_bars(
    title: str,
    groups: Mapping[str, Mapping[str, float]],
    width: int = 40,
    value_format: str = "{:.3f}",
) -> str:
    """Horizontal grouped bar chart.

    ``groups`` maps row label (benchmark) -> {series label: value}.
    Series order follows the first row's insertion order.
    """
    if not groups:
        return title
    series = list(next(iter(groups.values())).keys())
    finite = [
        v
        for row in groups.values()
        for v in row.values()
        if not math.isinf(v) and not math.isnan(v)
    ]
    scale = max(finite) if finite else 1.0
    label_w = max(len(s) for s in series)
    row_w = max(len(g) for g in groups)

    lines = [title, ""]
    for group, row in groups.items():
        for i, s in enumerate(series):
            value = row.get(s, 0.0)
            prefix = group.ljust(row_w) if i == 0 else " " * row_w
            shown = "inf" if math.isinf(value) else value_format.format(value)
            lines.append(f"{prefix}  {s.ljust(label_w)} {_bar(value, scale, width):<{width + 1}} {shown}")
        lines.append("")
    return "\n".join(lines)


def series_lines(
    title: str,
    rows: Mapping[str, Sequence[float]],
    columns: Sequence[str],
    width: int = 8,
    value_format: str = "{:.2f}",
) -> str:
    """Sweep chart: one row per benchmark, one mini-bar per sweep point."""
    if not rows:
        return title
    finite = [v for vs in rows.values() for v in vs if not math.isinf(v)]
    scale = max(finite) if finite else 1.0
    row_w = max(len(r) for r in rows)
    col_w = max(width, *(len(c) for c in columns)) + 1

    header = " " * row_w + "".join(c.rjust(col_w) for c in columns)
    lines = [title, "", header]
    for name, values in rows.items():
        cells = []
        for v in values:
            shown = value_format.format(v) if not math.isinf(v) else "inf"
            bar = _bar(v, scale, max(1, width - len(shown) - 1))
            cells.append(f"{bar} {shown}".rjust(col_w))
        lines.append(name.ljust(row_w) + "".join(cells))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line trend: ▁▂▃▄▅▆▇█ per value (used in sweep summaries)."""
    marks = "▁▂▃▄▅▆▇█"
    finite = [v for v in values if not math.isinf(v) and not math.isnan(v)]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo or 1.0
    out = []
    for v in values:
        if math.isinf(v) or math.isnan(v):
            out.append("?")
        else:
            out.append(marks[int((v - lo) / span * (len(marks) - 1))])
    return "".join(out)
