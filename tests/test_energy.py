"""Tests for the event-based energy model."""

import pytest

from repro.analysis.energy import EnergyBreakdown, EnergyModel
from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig


@pytest.fixture(scope="module")
def runs():
    cfg = SimulationConfig.paper_default().with_warmup(6000)
    return {
        "none": run_workload("em3d", cfg, 20_000),
        "pa": run_workload("em3d", cfg.with_filter(kind=FilterKind.PA), 20_000),
    }


class TestEnergyModel:
    def test_breakdown_components_positive(self, runs):
        e = EnergyModel().energy_of(runs["none"])
        assert e.l1 > 0 and e.l2 > 0 and e.memory > 0 and e.static > 0
        assert e.total == pytest.approx(e.dynamic + e.static)
        assert e.energy_per_instruction > 0

    def test_filter_run_pays_table_energy(self, runs):
        e_none = EnergyModel().energy_of(runs["none"])
        e_pa = EnergyModel().energy_of(runs["pa"])
        assert e_none.filter_table == 0.0
        assert e_pa.filter_table > 0.0

    def test_filter_cuts_memory_energy_on_polluted_bench(self, runs):
        """The paper's energy claim: filtering out bad prefetches removes
        their bus and memory traffic (minus the tiny table overhead)."""
        e_none = EnergyModel().energy_of(runs["none"])
        e_pa = EnergyModel().energy_of(runs["pa"])
        assert e_pa.memory + e_pa.bus < e_none.memory + e_none.bus
        assert e_pa.total < e_none.total

    def test_custom_cost_table(self, runs):
        hot_mem = EnergyModel(memory_access=10_000.0)
        assert hot_mem.energy_of(runs["none"]).memory > EnergyModel().energy_of(runs["none"]).memory

    def test_as_dict_keys(self, runs):
        d = EnergyModel().energy_of(runs["none"]).as_dict()
        assert set(d) == {"l1", "l2", "memory", "bus", "filter_table", "static", "total", "epi"}

    def test_zero_instruction_guard(self):
        e = EnergyBreakdown(0, 0, 0, 0, 0, 0, instructions=0)
        assert e.energy_per_instruction == 0.0
