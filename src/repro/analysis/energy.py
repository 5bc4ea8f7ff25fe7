"""Event-based energy accounting.

The paper motivates pollution filtering partly by energy: ineffective
prefetches "lead to performance loss and unnecessary energy consumption".
This module puts numbers on that claim with a standard event-energy model
(the CACTI-style approach): every architectural event carries a per-event
energy cost, and a run's energy is the dot product of its event counts
with those costs.

The default cost table uses widely-quoted relative magnitudes for a
~130 nm-era design (the paper's timeframe): an L2 access costs ~10× an L1
access, a DRAM access ~100×.  Absolute joules are not the point — the
*ratios between machines* (filtered vs unfiltered) are, and those are
insensitive to the exact table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.simulator import SimulationResult


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy costs in picojoules (relative magnitudes matter)."""

    l1_access: float = 10.0       # per L1 read/write/fill
    l2_access: float = 100.0      # per L2 access
    memory_access: float = 1000.0  # per DRAM line fetch
    bus_per_line: float = 50.0    # per line moved on the memory bus
    table_lookup: float = 0.5     # per history-table lookup/update
    static_per_cycle: float = 2.0  # leakage + clock per cycle

    def energy_of(self, result: SimulationResult) -> "EnergyBreakdown":
        """Compute a run's energy from its counters."""
        c = result.stats.flat()

        def g(key: str) -> float:
            return c.get(key, 0.0)

        l1_events = (
            result.l1_demand_accesses
            + g("mem.l1.demand_fill")
            + g("mem.l1.prefetch_fill")
        )
        l2_events = (
            g("mem.l2.demand_read_hit")
            + g("mem.l2.demand_read_miss")
            + g("mem.l2.demand_write_hit")
            + g("mem.l2.demand_write_miss")
            + g("mem.l2.demand_fill")
        )
        mem_events = (
            g("mem.mem_bus.lines_demand_fill")
            + g("mem.mem_bus.lines_prefetch_fill")
            + g("mem.mem_bus.lines_writeback")
        )
        bus_lines = mem_events + g("mem.l1_bus.lines_demand_fill") + g(
            "mem.l1_bus.lines_prefetch_fill"
        ) + g("mem.l1_bus.lines_writeback")
        table_events = (
            g("filter.table.lookup_good")
            + g("filter.table.lookup_bad")
            + g("filter.table.train_good")
            + g("filter.table.train_bad")
        )
        return EnergyBreakdown(
            l1=l1_events * self.l1_access,
            l2=l2_events * self.l2_access,
            memory=mem_events * self.memory_access,
            bus=bus_lines * self.bus_per_line,
            filter_table=table_events * self.table_lookup,
            static=result.cycles * self.static_per_cycle,
            instructions=result.instructions,
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component for one run (picojoules)."""

    l1: float
    l2: float
    memory: float
    bus: float
    filter_table: float
    static: float
    instructions: int

    @property
    def dynamic(self) -> float:
        return self.l1 + self.l2 + self.memory + self.bus + self.filter_table

    @property
    def total(self) -> float:
        return self.dynamic + self.static

    @property
    def energy_per_instruction(self) -> float:
        return self.total / self.instructions if self.instructions else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "l1": self.l1,
            "l2": self.l2,
            "memory": self.memory,
            "bus": self.bus,
            "filter_table": self.filter_table,
            "static": self.static,
            "total": self.total,
            "epi": self.energy_per_instruction,
        }

