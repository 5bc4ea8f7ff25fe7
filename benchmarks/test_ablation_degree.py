"""Ablation — prefetch aggressiveness (degree).

DESIGN.md calibrates the default prefetch degree to 2 to reproduce the
paper's "aggressive prefetching" premise on short traces.  This bench
sweeps degree 1/2/4 and verifies the premise mechanically: aggressiveness
raises prefetch traffic and bad-prefetch counts, which is precisely what
gives the pollution filter its opportunity.
"""

import pytest
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import Table
from repro.common.config import FilterKind

WORKLOADS = ("em3d", "wave5", "mcf")
DEGREES = (1, 2, 4)


def _sweep(suite):
    out = {}
    for name in WORKLOADS:
        out[name] = {}
        for degree in DEGREES:
            cfg = suite.base_config().with_prefetch(degree=degree)
            out[name][degree] = {
                FilterKind.NONE: suite.run(name, cfg),
                FilterKind.PA: suite.run(name, cfg.with_filter(kind=FilterKind.PA)),
            }
    return out


@pytest.mark.ablation
def test_ablation_prefetch_degree(benchmark, suite):
    results = benchmark.pedantic(_sweep, args=(suite,), rounds=1, iterations=1)

    table = Table(
        "Ablation — prefetch degree vs traffic / bad prefetches / filter gain",
        ["workload", "deg", "pf/normal", "bad count", "IPC none", "IPC PA"],
        mean_row=False,
    )
    for name in WORKLOADS:
        for degree in DEGREES:
            none = results[name][degree][FilterKind.NONE]
            pa = results[name][degree][FilterKind.PA]
            table.add_row(
                f"{name}", [float(degree), none.prefetch_to_normal_ratio, float(none.prefetch.bad), none.ipc, pa.ipc]
            )
    print("\n" + table.render())

    for name in WORKLOADS:
        traffic = [results[name][d][FilterKind.NONE].prefetch_to_normal_ratio for d in DEGREES]
        # Aggressiveness monotonically raises prefetch traffic.
        assert traffic[0] <= traffic[1] <= traffic[2] * 1.05, name
    # The filter's absolute IPC contribution does not shrink with aggressiveness.
    gains = {
        d: arithmetic_mean(
            results[n][d][FilterKind.PA].ipc - results[n][d][FilterKind.NONE].ipc for n in WORKLOADS
        )
        for d in DEGREES
    }
    assert gains[4] >= gains[1] - 0.05
