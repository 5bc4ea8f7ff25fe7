"""Figure 4 — bad and good prefetch counts under filtering (8 KB L1).

Counts are normalised to the no-filter good-prefetch count, as in the
paper.  Paper headline: PA removes ~97% of bad prefetches (PC ~98%) while
also losing ~51% (PA) / ~48% (PC) of good ones; prefetch bandwidth drops
~75%.
"""

from repro.analysis.metrics import arithmetic_mean, reduction_percent
from repro.common.config import FilterKind


def test_fig4_prefetch_counts_8kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure4, rounds=1, iterations=1)
    print("\n" + result.render())
    # The figure does not print prefetch bandwidth, so it is read off the
    # suite's runs.
    bw_red_pa = arithmetic_mean(
        reduction_percent(
            runs[FilterKind.NONE].prefetch_line_traffic, runs[FilterKind.PA].prefetch_line_traffic
        )
        for runs in suite.comparison(8).values()
    )
    print(f"measured PA prefetch bandwidth reduction: {bw_red_pa:.0f}% (paper: 75%)")

    summary = result.summary
    # Filters must remove the majority of bad prefetches...
    assert summary["bad reduction PA %"] > 50
    assert summary["bad reduction PC %"] > 50
    # ...at a real cost in good prefetches (the paper's central trade-off)...
    assert summary["good reduction PA %"] > 10
    # ...and bad prefetches must fall much harder than good ones.
    assert summary["bad reduction PA %"] > summary["good reduction PA %"]
    # Substantial prefetch-bandwidth reduction.
    assert bw_red_pa > 30
