"""Figure 11 — bad prefetches vs history-table size (PA filter).

Paper: mostly flat-to-rising with size (aliasing in short tables filters
*more*, including by accident); absolute numbers stay small.
"""

from repro.common.config import FilterKind


def test_fig11_table_size_bad_prefetches(benchmark, suite):
    result = benchmark.pedantic(suite.figure11, rounds=1, iterations=1)
    print("\n" + result.render())

    # Filtered bad counts stay far below the unfiltered baseline at every
    # size.  The figure prints counts normalised to 4K entries, so the
    # absolute counts are read off the suite's runs.
    unfiltered = suite.comparison(8)
    for name, by_size in suite.history_sweep().items():
        baseline_bad = unfiltered[name][FilterKind.NONE].prefetch.bad
        for size, run in by_size.items():
            assert run.prefetch.bad <= baseline_bad, (name, size)
