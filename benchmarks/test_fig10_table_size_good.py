"""Figure 10 — good prefetches vs history-table size (PA filter).

Normalised to the 4096-entry default.  Paper: generally more good
prefetches survive with longer tables; gap/gzip/mcf are size-insensitive.
"""

from repro.analysis.metrics import arithmetic_mean


def test_fig10_table_size_good_prefetches(benchmark, suite):
    result = benchmark.pedantic(suite.figure10, rounds=1, iterations=1)
    print("\n" + result.render())

    # Each row is a benchmark's good count at 1K..16K entries over its 4K count.
    rows = result.table.rows
    # Larger tables never lose good prefetches wholesale vs the smallest.
    assert arithmetic_mean(row[-1] for row in rows) >= arithmetic_mean(row[1] for row in rows) * 0.9
    # Every size keeps a usable fraction of the default's good prefetches.
    for row in rows:
        assert row[-1] > 0.3, row[0]
