"""Figure 9 — IPC comparison with a 32 KB L1 (4-cycle access).

Paper: "no filtering always delivers the worst IPC number"; means +7.0%
(PA) and +8.1% (PC).
"""

from repro.analysis.metrics import percent_change


def test_fig9_ipc_32kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure9, rounds=1, iterations=1)
    print("\n" + result.render())

    assert result.summary["mean speedup PA %"] > -1.0
    at_or_above = sum(
        1 for _name, none, pa, _pc in result.table.rows if percent_change(none, pa) > -1.0
    )
    assert at_or_above >= 7
