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

from repro.analysis.energy import EnergyBreakdown, EnergyModel, energy_comparison
from repro.analysis.export import result_to_dict, results_to_csv, results_to_json
from repro.analysis.figures import grouped_bars, series_lines, sparkline
from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    normalised,
    percent_change,
    reduction_percent,
)
from repro.analysis.report import Table, render_comparison
from repro.analysis.sweep import (
    FilterSetup,
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
    "FilterSetup",
    "Table",
    "grouped_bars",
    "result_to_dict",
    "results_to_csv",
    "results_to_json",
    "series_lines",
    "sparkline",
    "arithmetic_mean",
    "compare_filters",
    "energy_comparison",
    "geometric_mean",
    "normalised",
    "percent_change",
    "reduction_percent",
    "render_comparison",
    "run_oracle",
    "run_static",
    "run_workload",
    "sweep_history_sizes",
    "sweep_l1_ports",
]
