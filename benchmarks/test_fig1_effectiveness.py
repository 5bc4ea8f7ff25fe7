"""Figure 1 — effectiveness of prefetches (good vs bad distribution).

All three prefetch sources enabled, no filtering.  The paper reports that
on average 48% of prefetches are never referenced before eviction, with 4
of 10 benchmarks above 50%.
"""


def test_fig1_prefetch_effectiveness(benchmark, suite):
    result = benchmark.pedantic(suite.figure1, rounds=1, iterations=1)
    print("\n" + result.render())

    bad_frac = {name: bad for name, _good, bad in result.table.rows}
    assert 0.30 < result.summary["mean bad fraction"] < 0.90
    assert sum(1 for b in bad_frac.values() if b > 0.5) >= 4
    # pointer-heavy benchmarks must pollute more than the streaming ones
    assert bad_frac["mcf"] > bad_frac["ijpeg"]
    assert bad_frac["gcc"] > bad_frac["fpppp"]
