"""Performance-infrastructure smoke test (tier-1-safe scale).

Exercises the whole perf stack end to end at a tiny instruction budget:
parallel fan-out equals serial execution, the disk cache round-trips results
bit-identically, and a warm cache short-circuits execution entirely.  Speed
is measured by the benchmark in ``bench/`` (``python3 bench/run.py``); this
test only guards that the machinery keeps working, that a pipeline job's
fixed cost stays proportional to the work it does, that a demand access
walks its L1 set once, that a journaled batch pays one ``fsync``
however many jobs it journals, and that a kernel job on the cc leg runs
its final flush in the compiled code over SDP maps sized by the lines
its trace touches (all counted, not timed).
"""

import time

import pytest

import repro.analysis.checkpoint as checkpoint_mod
import repro.core.kernel as kernel_mod
from repro.analysis.backend import PoolBackend
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig
from repro.core import _ckernel
from repro.core import kernels as kernels_mod
from repro.core.kernel import MODE_CC, MODE_ENV, MODE_IDS, MODE_INTERP, KernelEngine
from repro.core.simulator import Simulator
from repro.workloads import cached_trace

N = 6_000
WARM = 1_500


def _jobs():
    cfg = SimulationConfig.paper_default().with_warmup(WARM)
    return [
        SimulationJob(workload, cfg.with_filter(kind=kind), N, 0)
        for workload in ("em3d", "gzip")
        for kind in (FilterKind.NONE, FilterKind.PA)
    ]


def test_parallel_cache_smoke(tmp_path):
    jobs = _jobs()
    serial = run_jobs(jobs, workers=1)

    parallel = run_jobs(jobs, workers=2)
    for a, b in zip(serial, parallel):
        assert (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
        assert a.stats.flat() == b.stats.flat()

    cache = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=cache)
    assert len(cache) == len(jobs)

    t0 = time.perf_counter()
    warm = run_jobs(jobs, workers=1, cache=cache)
    warm_seconds = time.perf_counter() - t0
    assert cache.hits == len(jobs)
    for a, b in zip(serial, warm):
        assert (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
        assert a.stats.flat() == b.stats.flat()
    # Warm reads are pure JSON loads; anything near simulation time means
    # the cache is being bypassed.
    assert warm_seconds < 1.0


def test_pipeline_caches_hold_only_the_lines_they_filled():
    # A cache that pre-built every way would hold 256 + 16,384 line
    # objects whatever the run; a short job must pay only for its fills.
    sim = Simulator(SimulationConfig.paper_default(FilterKind.PA), engine="pipeline")
    sim.run(cached_trace("em3d", N, 0))
    for cache in (sim.hierarchy.l1, sim.hierarchy.l2):
        fills = cache.stats.get("demand_fill") + cache.stats.get("prefetch_fill")
        held = sum(len(entries) for entries in cache.sets)
        assert 0 < fills
        assert held <= fills, f"{cache.name} holds {held} line objects after {fills} fills"


def test_a_fresh_pipeline_builds_no_set_lists():
    # Every unfilled set is one shared empty tuple; a list per set would
    # be 4,352 objects per job at the paper's geometry.
    sim = Simulator(SimulationConfig.paper_default(), engine="pipeline")
    caches = (sim.hierarchy.l1, sim.hierarchy.l2)
    assert all(cache.sets for cache in caches)
    assert sum(isinstance(entries, list) for cache in caches for entries in cache.sets) == 0


def test_a_demand_access_looks_up_its_l1_set_once():
    # The NSP tag read-and-clear and the hit/miss share one walk of the
    # set.  The fill a miss makes is not a lookup and is not counted.
    sim = Simulator(SimulationConfig.paper_default(FilterKind.PA), engine="pipeline")
    hierarchy, l1 = sim.hierarchy, sim.hierarchy.l1
    state = {"counting": False, "lookups": 0, "accesses": 0}

    class CountedSets(list):
        def __getitem__(self, index):
            state["lookups"] += state["counting"]
            return list.__getitem__(self, index)

    real_access, real_fill = hierarchy.demand_access, l1.fill

    def demand_access(*args):
        state["accesses"] += 1
        state["counting"] = True
        try:
            return real_access(*args)
        finally:
            state["counting"] = False

    def fill(*args, **kwargs):
        counting, state["counting"] = state["counting"], False
        try:
            return real_fill(*args, **kwargs)
        finally:
            state["counting"] = counting

    l1.sets = CountedSets(l1.sets)
    hierarchy.demand_access, l1.fill = demand_access, fill
    sim.run(cached_trace("em3d", N, 0))
    assert state["accesses"] > 1_000
    assert state["lookups"] == state["accesses"]


def _kernel_grid(n_insts=N, warmup=WARM):
    """Figures 10-12's grid on one trace: no filter, then PA and PC at 1K-16K entries."""
    base = SimulationConfig.paper_default().with_warmup(warmup).with_engine("kernel")
    configs = [base] + [
        base.with_filter(kind=kind, table_entries=entries)
        for kind in (FilterKind.PA, FilterKind.PC)
        for entries in (1024, 2048, 4096, 8192, 16384)
    ]
    return [SimulationJob("em3d", cfg, n_insts, 0) for cfg in configs]


#: The sweep-warm grid's trace length (``bench/workloads.py``).
SWEEP_INSTS = 100_000


def _requires_cc():
    if _ckernel.rejected():
        pytest.fail(_ckernel.LOAD_ERROR)
    if _ckernel.load() is None:
        pytest.skip(f"no C compiler builds the cc leg: {_ckernel.LOAD_ERROR}")


def test_cc_kernel_jobs_make_no_python_feedback_call(monkeypatch):
    # The final flush classifies the still-resident prefetched lines
    # inside the compiled leg; a Python flush loop made about 100
    # feedback calls per job.
    _requires_cc()
    calls = []
    real = kernels_mod.feedback

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels_mod, "feedback", counted)
    jobs = _kernel_grid(SWEEP_INSTS, SWEEP_INSTS // 3)
    monkeypatch.setenv(MODE_ENV, MODE_INTERP)
    run_jobs(jobs[-1:], workers=1)
    assert calls, "the counter does not see the interp leg's feedback calls"

    calls.clear()
    monkeypatch.setenv(MODE_ENV, MODE_CC)
    results = run_jobs(jobs, workers=1)
    assert len(results) == 11
    assert {r.stats.flat()["pipeline.kernel_mode_id"] for r in results} == {MODE_IDS[MODE_CC]}
    assert all(r.stats.flat()["filter.feedback_bad"] for r in results)
    assert calls == []


def test_the_sdp_maps_are_sized_by_the_lines_a_trace_touches():
    # A 100k-instruction em3d trace has 49,055 memory ops on 1,568
    # distinct lines; sized by memory ops, each map had 131,072 slots.
    KernelEngine(SimulationConfig.paper_default(FilterKind.PA)).run(
        cached_trace("em3d", SWEEP_INSTS, 0)
    )
    spare = kernel_mod._memo.spare
    assert len(spare.dir_key) == len(spare.aw_key) == 4096


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` the journal makes, by file descriptor."""
    calls = []
    real = checkpoint_mod.os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(checkpoint_mod.os, "fsync", counting)
    return calls


def test_a_journaled_batch_fsyncs_once(tmp_path, fsyncs):
    jobs = _kernel_grid()
    assert len(jobs) == 11
    cache = ResultCache(tmp_path / "cache")
    run_jobs(jobs, workers=1, cache=cache, journal=RunJournal(tmp_path / "cold.jsonl"))
    assert len(fsyncs) == 1

    fsyncs.clear()
    report = run_jobs(
        jobs, workers=1, cache=cache, journal=RunJournal(tmp_path / "warm.jsonl"),
        return_report=True,
    )
    assert all(o.from_cache for o in report.outcomes)  # every job a backfilled hit
    assert len(RunJournal(tmp_path / "warm.jsonl").completed()) == len(jobs)
    assert len(fsyncs) == 1

    fsyncs.clear()
    run_jobs(jobs, workers=1, cache=ResultCache(tmp_path / "unjournaled"))
    assert fsyncs == []


class _FailsAfterOneJob(PoolBackend):
    def execute(self, batch, pending, workers):
        super().execute(batch, pending[:1], workers)
        raise RuntimeError("backend lost")


def test_a_batch_that_raises_still_fsyncs_once(tmp_path, fsyncs):
    journal = RunJournal(tmp_path / "j.jsonl")
    with pytest.raises(RuntimeError, match="backend lost"):
        run_jobs(_kernel_grid(), workers=1, journal=journal, backend=_FailsAfterOneJob())
    assert len(journal.completed()) == 1
    assert len(fsyncs) == 1
