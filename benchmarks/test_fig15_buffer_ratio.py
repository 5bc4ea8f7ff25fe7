"""Figure 15 — bad/good ratios with a dedicated 16-entry prefetch buffer.

Section 5.5: prefetching into a small fully-associative buffer instead of
the L1.  Paper: "in most of the programs, adding a dedicated prefetch
buffer degrades the effectiveness of pollution filters" — the buffer's
16 entries evict prefetches before they can prove useful.
"""

from repro.common.config import FilterKind


def test_fig15_buffer_bad_good_ratio(benchmark, suite):
    result = benchmark.pedantic(suite.figure15, rounds=1, iterations=1)
    print("\n" + result.render())

    # The buffer meaningfully changes classification outcomes everywhere.
    # The figure prints ratios, so the classified counts are read off the
    # suite's runs.
    assert all(
        runs[(FilterKind.PA, True)].prefetch.classified > 0
        for runs in suite.buffer_runs().values()
    )
