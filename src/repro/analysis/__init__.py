"""Experiment drivers and reporting.

* :mod:`repro.analysis.metrics` — derived metrics (reductions, ratios,
  means) shared by every figure,
* :mod:`repro.analysis.sweep` — run matrices over workloads / filters /
  configurations, including the two-pass oracle and static-filter protocols,
* :mod:`repro.analysis.report` — paper-style text tables,
* :mod:`repro.analysis.experiments` — the paper's experiment registry.
  It is not imported here: ``python -m repro.analysis.experiments``
  regenerates EXPERIMENTS.md, and runpy warns when the package has
  already imported the module it is asked to run.
"""

from repro.analysis.energy import EnergyBreakdown, EnergyModel
from repro.analysis.export import result_row, results_to_csv, results_to_json
from repro.analysis.figures import grouped_bars, series_lines, sparkline
from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    percent_change,
    reduction_percent,
)
from repro.analysis.report import Table
from repro.analysis.sweep import (
    compare_filters,
    run_oracle,
    run_static,
    run_workload,
    sweep_history_sizes,
    sweep_l1_ports,
)

__all__ = [
    "EnergyBreakdown",
    "EnergyModel",
    "Table",
    "grouped_bars",
    "result_row",
    "results_to_csv",
    "results_to_json",
    "series_lines",
    "sparkline",
    "arithmetic_mean",
    "compare_filters",
    "geometric_mean",
    "percent_change",
    "reduction_percent",
    "run_oracle",
    "run_static",
    "run_workload",
    "sweep_history_sizes",
    "sweep_l1_ports",
]
