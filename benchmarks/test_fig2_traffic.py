"""Figure 2 — traffic distribution of the L1 cache.

Prefetch accesses as a fraction of normal (demand) accesses with all
prefetchers on and no filter.  Paper: ratio 0.29 (gzip) to 0.57 (ijpeg),
average 0.41 — i.e. aggressive prefetching is a large share of L1 traffic.
"""

from repro.common.config import FilterKind


def test_fig2_l1_traffic_distribution(benchmark, suite):
    result = benchmark.pedantic(suite.figure2, rounds=1, iterations=1)
    print("\n" + result.render())

    # Aggressive prefetching: a visible share of L1 traffic everywhere.
    assert result.summary["mean ratio"] > 0.05
    assert all(ratio > 0.01 for _name, ratio in result.table.rows)
    # every benchmark issues real prefetch traffic to the L1 (a count the
    # figure does not print, so it is read off the suite's runs)
    unfiltered = suite.comparison(8)
    assert all(runs[FilterKind.NONE].l1_prefetch_fills > 50 for runs in unfiltered.values())
