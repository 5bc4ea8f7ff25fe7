"""Figure 6 — IPC comparison (8 KB L1).

Paper: filtering improves IPC for every benchmark; mean +8.2% (PA) and
+9.1% (PC).  Our reproduction: the mean improves and the pollution-bound
benchmarks improve sharply; the one divergence is gzip, whose synthetic
trace profits from prefetching far more than the original (see
EXPERIMENTS.md).
"""

from repro.analysis.metrics import percent_change


def test_fig6_ipc_8kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure6, rounds=1, iterations=1)
    print("\n" + result.render())

    # The PA filter improves mean IPC over no filtering.
    assert result.summary["mean speedup PA %"] > 0
    # Filtering must never be a broad regression: most benchmarks at or above baseline.
    speedup_pa = {name: percent_change(none, pa) for name, none, pa, _pc in result.table.rows}
    at_or_above = sum(1 for s in speedup_pa.values() if s > -1.0)
    assert at_or_above >= 7
    # The pollution-dominated benchmark gains dramatically.
    assert speedup_pa["em3d"] > 15
