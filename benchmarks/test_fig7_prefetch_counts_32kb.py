"""Figure 7 — prefetch counts under filtering with a 32 KB L1 (4-cycle).

Paper: bad prefetches fall 91% (PA) / 92% (PC); good prefetches are better
preserved than at 8 KB (only 35% / 27% removed) because the larger cache
suffers fewer conflict/capacity evictions.
"""


def test_fig7_prefetch_counts_32kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure7, rounds=1, iterations=1)
    print("\n" + result.render())
    bad_red = result.summary["bad reduction PA %"]
    good_red = result.summary["good reduction PA %"]

    # Direction: the filter removes a substantial share of bad prefetches and
    # harms good ones less.  (At this trace scale the 32KB cache evicts far
    # less, so the filter sees less feedback and magnitudes sit below the
    # paper's 91% — see EXPERIMENTS.md.)
    assert bad_red > 30
    assert bad_red > good_red

    # Cross-cache-size claim: the 32KB machine preserves good prefetches at
    # least as well as the 8KB one (fewer pollution evictions).
    assert good_red <= suite.figure4().summary["good reduction PA %"] + 10
