"""Kernel engine vs pipeline: the fidelity contract's two regimes.

The contract (see ``repro.core.kernel``) has two regimes:

* under a contention-free machine (``relaxed_config``) the pipeline's
  issue throttles never bind, so kernel and pipeline classification
  counters must agree — exactly for demand accesses, within a small
  tolerance for prefetch counters (residuals come from the pipeline's
  1-cycle enqueue delay and LRU timestamp ties);
* under paper-default contention the engines legitimately diverge on
  timeliness-coupled counters; no tolerance bounds that gap, so here
  we only check structural invariants.

The tolerances are the ones ``repro-sim verify`` enforces, imported from
``repro.sanitize.differential`` so there is one definition of the contract.
"""

import pytest

from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig
from repro.sanitize.differential import (
    ABS_TOL,
    COUNTER_KEYS,
    REL_TOL,
    SCALAR_KEYS,
    relaxed_config,
)

N = 40_000
PARITY_WORKLOADS = ("em3d", "mcf", "gcc", "wave5", "gzip", "ijpeg")
FILTERS = (FilterKind.NONE, FilterKind.PA, FilterKind.PC)


def _pair(workload, kind, n=N, relaxed=True, warmup=0):
    cfg = SimulationConfig.paper_default(kind)
    if warmup:
        cfg = cfg.with_warmup(warmup)
    if relaxed:
        cfg = relaxed_config(cfg)
    pipeline = run_workload(workload, cfg, n, 0, "pipeline")
    kernel = run_workload(workload, cfg, n, 0, "kernel")
    return pipeline, kernel


def _assert_close(label, a, b):
    delta = abs(a - b)
    rel = delta / max(1, a)
    assert rel <= REL_TOL or delta <= ABS_TOL, (
        f"{label}: pipeline={a} kernel={b} (delta {delta}, rel {rel:.3f})"
    )


class TestRelaxedParity:
    """Contention-free machine: the regime where parity is exact-ish."""

    @pytest.mark.parametrize("workload", PARITY_WORKLOADS)
    @pytest.mark.parametrize("kind", FILTERS, ids=lambda k: k.value)
    def test_classification_counters_match(self, workload, kind):
        p, k = _pair(workload, kind)
        # Demand-side access counts depend only on the trace and cache
        # geometry, never on timing: they must match bit-for-bit.
        assert p.l1_demand_accesses == k.l1_demand_accesses
        assert p.instructions == k.instructions
        for key in COUNTER_KEYS:
            _assert_close(f"{workload}/{kind.value}/{key}", getattr(p.prefetch, key), getattr(k.prefetch, key))
        for key in SCALAR_KEYS:
            _assert_close(f"{workload}/{kind.value}/{key}", getattr(p, key), getattr(k, key))

    def test_per_source_rows_cover_same_sources(self):
        p, k = _pair("em3d", FilterKind.PA)
        active = lambda per_source: {s for s, t in per_source.items() if t.generated}
        assert active(p.per_source) == active(k.per_source)

    def test_warmup_discards_the_same_prefix(self):
        p, k = _pair("mcf", FilterKind.PA, warmup=N // 4)
        assert p.instructions == k.instructions
        assert p.l1_demand_accesses == k.l1_demand_accesses
        for key in COUNTER_KEYS:
            _assert_close(f"warmup/{key}", getattr(p.prefetch, key), getattr(k.prefetch, key))


class TestPaperDefaultSanity:
    """Under real contention only structural invariants are promised."""

    @pytest.mark.parametrize("kind", FILTERS, ids=lambda k: k.value)
    def test_counter_conservation(self, kind):
        _, k = _pair("gcc", kind, relaxed=False)
        t = k.prefetch
        # Every generated prefetch is squashed, filtered, or issued; the
        # zero-contention engine never queues, so it never drops.
        assert t.dropped == 0
        assert t.generated == t.squashed + t.filtered + t.issued
        assert t.good + t.bad <= t.issued

    def test_demand_accesses_match_pipeline_even_under_contention(self):
        p, k = _pair("em3d", FilterKind.PC, relaxed=False)
        assert p.l1_demand_accesses == k.l1_demand_accesses
        assert p.instructions == k.instructions

    def test_reports_cycles_and_ipc(self):
        _, k = _pair("bh", FilterKind.NONE, relaxed=False)
        assert k.cycles > 0
        assert 0 < k.ipc < 8
