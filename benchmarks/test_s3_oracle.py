"""Section 3 motivation — oracle elimination of bad prefetches.

The paper motivates the hardware filter by measuring the headroom from
"artificially eliminating" bad prefetches.  The oracle (two-pass, majority
per (line, PC) key) must cut bad prefetches deeply while keeping most good
ones — strictly better on the trade-off than any realisable filter.
"""

from repro.analysis.metrics import arithmetic_mean


def test_s3_oracle_elimination(benchmark, suite):
    result = benchmark.pedantic(suite.section3_oracle, rounds=1, iterations=1)
    print("\n" + result.render())
    good_kept = arithmetic_mean(row[-1] for row in result.table.rows)

    assert result.summary["mean bad reduction %"] > 60
    assert good_kept > 40
    # The oracle keeps a better good/bad trade-off than the PA filter.
    pa_good_kept = 100 - suite.figure4().summary["good reduction PA %"]
    assert good_kept > pa_good_kept - 10
