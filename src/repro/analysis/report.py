"""Paper-style text tables.

Every bench prints one of these: benchmarks down the rows (Table 2 order),
scenarios across the columns, a mean row at the bottom — the textual
equivalent of the paper's bar charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.metrics import arithmetic_mean


@dataclass
class Table:
    """A simple column-aligned text table with an optional mean row."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    mean_row: bool = True
    float_format: str = "{:.3f}"

    def add_row(self, label: str, values: Sequence[object]) -> None:
        if len(values) != len(self.columns) - 1:
            raise ValueError(
                f"row {label!r} has {len(values)} values for {len(self.columns) - 1} data columns"
            )
        self.rows.append([label, *values])

    def _fmt(self, value: object) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "-"
            if value in (float("inf"), float("-inf")):
                return "inf"
            return self.float_format.format(value)
        return str(value)

    def render(self) -> str:
        body = [[self._fmt(cell) for cell in row] for row in self.rows]
        if self.mean_row and self.rows:
            means: List[str] = ["mean"]
            for c in range(1, len(self.columns)):
                numeric = [row[c] for row in self.rows if isinstance(row[c], (int, float))]
                means.append(self._fmt(arithmetic_mean([float(v) for v in numeric])) if numeric else "-")
            body.append(means)
        widths = [
            max(len(self.columns[c]), *(len(r[c]) for r in body)) if body else len(self.columns[c])
            for c in range(len(self.columns))
        ]
        lines = [self.title, ""]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)
