"""Ablation — history-table micro-design: hash scheme and counter shape.

DESIGN.md calls out two implementation choices the paper leaves open:

* the index hash ("a hash function" in the paper) — modulo (naive direct
  index), XOR-fold, or multiplicative mixing;
* the counter shape — 1-bit (no hysteresis) vs the paper's 2-bit vs 3-bit.

This bench quantifies both on a pointer benchmark.
"""

import pytest
from repro.analysis.report import Table
from repro.core.simulator import Simulator
from repro.filters.pa_filter import PAFilter
from repro.workloads import cached_trace

WORKLOAD = "mcf"


def _sweep(suite):
    cfg = suite.base_config()
    trace = cached_trace(WORKLOAD, suite.n_insts, suite.seed, True)
    results = {}
    for scheme in ("modulo", "fold_xor", "multiplicative"):
        f = PAFilter(entries=4096, hash_scheme=scheme)
        results[f"hash:{scheme}"] = Simulator(cfg, filter_=f).run(trace)
    for bits, init, thr in ((1, 1, 1), (2, 2, 2), (3, 4, 4)):
        f = PAFilter(entries=4096, counter_bits=bits, initial_value=init, threshold=thr)
        results[f"{bits}-bit"] = Simulator(cfg, filter_=f).run(trace)
    return results


@pytest.mark.ablation
def test_ablation_table_design(benchmark, suite):
    results = benchmark.pedantic(_sweep, args=(suite,), rounds=1, iterations=1)

    table = Table(
        f"Ablation — history-table design on {WORKLOAD}",
        ["variant", "IPC", "good", "bad", "filtered"],
        mean_row=False,
    )
    for label, r in results.items():
        t = r.prefetch
        table.add_row(label, [r.ipc, float(t.good), float(t.bad), float(t.filtered)])
    print("\n" + table.render())

    baseline = suite.run(WORKLOAD, suite.base_config())
    # Every variant is a working filter: bad prefetches fall vs no filter.
    for label, r in results.items():
        assert r.prefetch.bad < baseline.prefetch.bad, label
    # 1-bit counters flip on a single outcome, so they never filter *less*
    # than 2-bit hysteresis.
    assert results["1-bit"].prefetch.issued <= results["2-bit"].prefetch.issued * 1.05
