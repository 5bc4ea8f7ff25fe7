"""Ablation — the paper's energy claim.

The introduction argues ineffective prefetches cause "performance loss and
unnecessary energy consumption".  This bench quantifies it with the
event-energy model: on the pollution-heavy benchmarks, filtering must cut
memory-side (bus + DRAM) energy by more than the history table adds.
"""

import pytest
from repro.analysis.energy import EnergyModel
from repro.analysis.metrics import arithmetic_mean, percent_change
from repro.analysis.report import Table
from repro.common.config import FilterKind

WORKLOADS = ("em3d", "perimeter", "mcf", "gcc")


@pytest.mark.ablation
def test_ablation_energy(benchmark, suite):
    results = benchmark.pedantic(suite.comparison, args=(8,), rounds=1, iterations=1)
    model = EnergyModel()

    table = Table(
        "Ablation — energy per instruction (event model, pJ)",
        ["benchmark", "EPI none", "EPI PA", "mem+bus none", "mem+bus PA", "table PA"],
        mean_row=False,
    )
    epi_changes = []
    for name in WORKLOADS:
        e_none = model.energy_of(results[name][FilterKind.NONE])
        e_pa = model.energy_of(results[name][FilterKind.PA])
        table.add_row(
            name,
            [
                e_none.energy_per_instruction,
                e_pa.energy_per_instruction,
                e_none.memory + e_none.bus,
                e_pa.memory + e_pa.bus,
                e_pa.filter_table,
            ],
        )
        epi_changes.append(
            percent_change(e_none.energy_per_instruction, e_pa.energy_per_instruction)
        )
    print("\n" + table.render())
    print(f"mean EPI change with PA filter: {arithmetic_mean(epi_changes):+.1f}%")

    for name in WORKLOADS:
        e_none = model.energy_of(results[name][FilterKind.NONE])
        e_pa = model.energy_of(results[name][FilterKind.PA])
        # Memory-side energy falls, and by far more than the table costs.
        saved = (e_none.memory + e_none.bus) - (e_pa.memory + e_pa.bus)
        assert saved > 0, name
        assert saved > e_pa.filter_table, name
