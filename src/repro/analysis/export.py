"""Result serialisation: JSON/CSV export of simulation results.

Downstream users (plotting scripts, regression tracking, spreadsheet
comparisons against the paper) need results out of Python objects.  This
module flattens :class:`~repro.core.simulator.SimulationResult` into a
report row and renders batches as JSON documents or CSV tables with one
row per run.  A row carries derived metrics (IPC, miss rates) and drops
the stats tree, so it cannot rebuild a result: the lossless payload the
result cache stores is :func:`repro.analysis.result_cache.result_to_dict`.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.core.simulator import SimulationResult
from repro.mem.cache import FillSource

#: Scalar fields exported for every run, in CSV column order.
RESULT_FIELDS = (
    "trace_name",
    "filter_name",
    "instructions",
    "cycles",
    "ipc",
    "l1_miss_rate",
    "l2_miss_rate",
    "prefetch_to_normal_ratio",
    "bad_good_ratio",
    "l1_demand_accesses",
    "l1_demand_misses",
    "l2_demand_accesses",
    "l2_demand_misses",
    "l1_prefetch_fills",
    "prefetch_line_traffic",
    "demand_line_traffic",
)

_TALLY_FIELDS = ("generated", "squashed", "filtered", "dropped", "issued", "good", "bad")


def result_row(result: SimulationResult, include_sources: bool = True) -> Dict[str, object]:
    """Flatten a result into JSON-ready scalars.

    ``include_sources`` adds per-prefetcher tallies under
    ``nsp_good``-style keys (Section 5.2.1's per-source analysis).
    """
    out: Dict[str, object] = {}
    for field in RESULT_FIELDS:
        value = getattr(result, field)
        if isinstance(value, float) and value == float("inf"):
            value = None  # JSON has no infinity
        out[field] = value
    for field in _TALLY_FIELDS:
        out[f"prefetch_{field}"] = getattr(result.prefetch, field)
    if include_sources:
        for source in (FillSource.NSP, FillSource.SDP, FillSource.SOFTWARE, FillSource.STRIDE):
            tally = result.per_source[source]
            prefix = source.name.lower()
            for field in _TALLY_FIELDS:
                out[f"{prefix}_{field}"] = getattr(tally, field)
    return out


def results_to_json(results: Iterable[SimulationResult], indent: int = 2) -> str:
    """A JSON array, one object per run."""
    return json.dumps([result_row(r) for r in results], indent=indent)


def results_to_csv(results: Sequence[SimulationResult], include_sources: bool = False) -> str:
    """A CSV table, one row per run (stable column order)."""
    if not results:
        return ""
    rows: List[Mapping[str, object]] = [result_row(r, include_sources) for r in results]
    columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in columns))
    return "\n".join(lines)
