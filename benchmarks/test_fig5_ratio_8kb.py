"""Figure 5 — bad/good prefetch ratios (8 KB L1).

Paper: the ratio falls by ~70% with PA filtering and ~91% with PC.
"""


def test_fig5_bad_good_ratio_8kb(benchmark, suite):
    result = benchmark.pedantic(suite.figure5, rounds=1, iterations=1)
    print("\n" + result.render())

    assert result.summary["ratio reduction PA %"] > 30
    assert result.summary["ratio reduction PC %"] > 30
    # ratio must fall for a clear majority of benchmarks
    falls = sum(1 for _name, none, pa, _pc in result.table.rows if pa <= none + 1e-9)
    assert falls >= 7
