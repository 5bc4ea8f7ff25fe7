"""Figure 8 — bad/good prefetch ratios with a 32 KB L1.

Paper: ratio reduced ~75% (PA) and ~93% (PC), slightly better than 8 KB.
"""


def test_fig8_bad_good_ratio_32kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure8, rounds=1, iterations=1)
    print("\n" + result.render())

    # Softer magnitude than the paper's 75% for the same reason as Figure 7
    # (less eviction feedback at 32KB on short traces); direction must hold.
    assert result.summary["ratio reduction PA %"] > 15
