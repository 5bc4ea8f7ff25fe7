"""Figure 13 — bad/good prefetch ratio vs number of L1 ports (PA filter).

3/4/5 universal ports with access latency 1/2/3 cycles.  Paper: with fewer
ports, queued prefetches issue late and "potential good prefetches turn
bad", so the ratio falls as ports are added — ~6% from 3 to 4 ports and
only ~2% more from 4 to 5.
"""

from repro.analysis.metrics import arithmetic_mean


def test_fig13_ports_bad_good_ratio(benchmark, suite):
    result = benchmark.pedantic(suite.figure13, rounds=1, iterations=1)
    print("\n" + result.render())

    # Mean ratio per port count; arithmetic_mean skips the infinite ratios.
    _names, *columns = zip(*result.table.rows)
    mean3, mean4, mean5 = (arithmetic_mean(column) for column in columns)
    # 4-port and 5-port ratios stay close (diminishing returns).
    assert abs(mean5 - mean4) <= abs(mean4 - mean3) + 0.15 * max(1.0, mean3)
