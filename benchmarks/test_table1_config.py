"""Table 1 — system configuration.

Regenerates the configuration table and verifies the default machine is
exactly the paper's (this is the anchor every other experiment builds on).
"""

from repro.common.config import SimulationConfig


def test_table1_system_configuration(benchmark, suite):
    result = benchmark.pedantic(suite.table1, rounds=3, iterations=1)
    print("\n" + result.render())

    cfg = SimulationConfig.paper_default()
    p, h, f = cfg.processor, cfg.hierarchy, cfg.filter
    assert p.issue_width == 8 and p.retire_width == 8
    assert p.rob_entries == 128 and p.lsq_entries == 64
    assert p.branch_predictor_entries == 2048
    assert p.btb_ways == 4 and p.btb_sets == 4096
    assert h.l1.size_bytes == 8 * 1024 and h.l1.line_bytes == 32
    assert h.l1.ways == 1 and h.l1.latency == 1 and h.l1.ports == 3
    assert h.l2.size_bytes == 512 * 1024 and h.l2.ways == 4 and h.l2.latency == 15
    assert h.memory_latency == 150 and h.bus_bytes == 64
    assert cfg.prefetch.queue_entries == 64
    assert f.table_entries == 4096 and f.table_bytes == 1024
