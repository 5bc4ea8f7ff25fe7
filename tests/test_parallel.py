"""Parallel run engine: determinism, equivalence with serial, fallback."""

import os

import pytest

import repro.analysis.parallel as parallel_mod
import repro.analysis.resilience as resilience_mod
from repro.analysis.experiments import ExperimentSuite
from repro.analysis.parallel import SimulationJob, default_workers, run_jobs
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig

N = 8_000
WARM = 2_000


def _cfg(kind=FilterKind.NONE):
    return SimulationConfig.paper_default(kind).with_warmup(WARM)


def _fingerprint(result):
    return (
        result.trace_name,
        result.filter_name,
        result.instructions,
        result.cycles,
        result.prefetch,
        result.per_source,
        result.l1_demand_accesses,
        result.l1_demand_misses,
        result.l2_demand_accesses,
        result.l2_demand_misses,
        result.l1_prefetch_fills,
        result.prefetch_line_traffic,
        result.demand_line_traffic,
        tuple(sorted(result.stats.flat().items())),
    )


class TestSimulationJob:
    def test_key_is_stable(self):
        a = SimulationJob("em3d", _cfg(), N, 0)
        b = SimulationJob("em3d", _cfg(), N, 0)
        assert a.key() == b.key()

    def test_key_differentiates_every_field(self):
        base = SimulationJob("em3d", _cfg(), N, 0)
        variants = [
            SimulationJob("mcf", _cfg(), N, 0),
            SimulationJob("em3d", _cfg(FilterKind.PA), N, 0),
            SimulationJob("em3d", _cfg(), N + 1, 0),
            SimulationJob("em3d", _cfg(), N, 1),
            SimulationJob("em3d", _cfg(), N, 0, software_prefetch=False),
            SimulationJob("em3d", _cfg(), N, 0, engine="kernel"),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1


class TestRunJobs:
    def test_parallel_identical_to_serial(self):
        """Two workloads x three filter kinds: same results either way."""
        jobs = [
            SimulationJob(workload, _cfg(kind), N, 0)
            for workload in ("em3d", "mcf")
            for kind in (FilterKind.NONE, FilterKind.PA, FilterKind.PC)
        ]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=3)
        assert len(serial) == len(parallel) == len(jobs)
        for job, a, b in zip(jobs, serial, parallel):
            assert a.trace_name == job.workload
            assert _fingerprint(a) == _fingerprint(b)

    def test_empty_batch(self):
        assert run_jobs([], workers=4) == []

    def test_single_job_stays_serial(self, monkeypatch):
        def boom(*a, **k):  # the pool must never be constructed
            raise AssertionError("pool constructed for a single job")

        monkeypatch.setattr(resilience_mod, "get_context", boom)
        [r] = run_jobs([SimulationJob("gzip", _cfg(), N, 0)], workers=8)
        assert r.cycles > 0

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no fork for you")

        monkeypatch.setattr(resilience_mod, "get_context", BrokenPool)
        jobs = [SimulationJob("gzip", _cfg(k), N, 0) for k in (FilterKind.NONE, FilterKind.PA)]
        results = run_jobs(jobs, workers=4)
        reference = run_jobs(jobs, workers=1)
        for a, b in zip(results, reference):
            assert _fingerprint(a) == _fingerprint(b)

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == min(3, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert default_workers() == (os.cpu_count() or 1)

    def test_default_workers_rejects_nonpositive(self, monkeypatch):
        for bad in ("0", "-2"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ValueError, match="positive"):
                default_workers()

    def test_run_jobs_rejects_nonpositive_workers(self):
        job = SimulationJob("gzip", _cfg(), n_insts=N, seed=0)
        with pytest.raises(ValueError, match="positive"):
            run_jobs([job], workers=0)
        with pytest.raises(ValueError, match="positive"):
            run_jobs([job], workers=-1)

    def test_run_jobs_clamps_workers_to_cpu_count(self, monkeypatch):
        """An oversized explicit count must not spawn beyond the CPUs."""
        seen = {}
        real_context = resilience_mod.get_context

        class SpyContext:  # counts the workers the pool forks
            def __init__(self, method):
                self._real = real_context(method)
                self.Pipe = self._real.Pipe

            def Process(self, **kwargs):
                seen["max_workers"] = seen.get("max_workers", 0) + 1
                return self._real.Process(**kwargs)

        monkeypatch.setattr(resilience_mod, "get_context", SpyContext)
        jobs = [SimulationJob("gzip", _cfg(), n_insts=N, seed=s) for s in range(3)]
        run_jobs(jobs, workers=512)
        if "max_workers" in seen:  # pool path reached (more than one CPU)
            assert seen["max_workers"] <= (os.cpu_count() or 1)

    def test_nested_run_jobs_stays_serial(self, monkeypatch):
        """Inside a pool worker, run_jobs must not fork another pool."""
        monkeypatch.setenv("REPRO_POOL_WORKER", "1")

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("nested run_jobs created a process pool")

        monkeypatch.setattr(resilience_mod, "get_context", boom)
        jobs = [SimulationJob("gzip", _cfg(), n_insts=N, seed=s) for s in range(3)]
        results = run_jobs(jobs, workers=4)
        assert all(r is not None for r in results)


class TestSuiteCaching:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        """A second suite over a warm disk cache must produce identical
        tables without invoking the simulator at all."""
        first = ExperimentSuite(N, WARM, seed=0, workers=1, cache=ResultCache(tmp_path))
        table_cold = first.run_experiment("f1").table.render()

        calls = []
        real = parallel_mod.execute_job

        def spy(job):
            calls.append(job)
            return real(job)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        second = ExperimentSuite(N, WARM, seed=0, workers=1, cache=ResultCache(tmp_path))
        table_warm = second.run_experiment("f1").table.render()

        assert table_warm == table_cold
        assert calls == []  # every run came from disk

    def test_memo_key_shares_runs_across_equal_configs(self):
        suite = ExperimentSuite(N, WARM, seed=0)
        cfg_a = SimulationConfig.paper_default(FilterKind.PA).with_warmup(WARM)
        cfg_b = SimulationConfig.paper_default(FilterKind.PA).with_warmup(WARM)
        suite.run("em3d", cfg_a)
        before = len(suite._runs)
        suite.run("em3d", cfg_b)  # distinct object, same content hash
        assert len(suite._runs) == before

    def test_suite_results_identical_with_and_without_workers(self):
        serial = ExperimentSuite(N, WARM, seed=0, workers=1)
        threaded = ExperimentSuite(N, WARM, seed=0, workers=2)
        assert (
            serial.run_experiment("f2").table.render()
            == threaded.run_experiment("f2").table.render()
        )


class TestSweepWiring:
    def test_compare_filters_parallel_matches_serial(self):
        from repro.analysis.sweep import compare_filters

        cfg = _cfg()
        serial = compare_filters("gcc", cfg, n_insts=N, workers=1)
        parallel = compare_filters("gcc", cfg, n_insts=N, workers=2)
        assert serial.keys() == parallel.keys()
        for kind in serial:
            assert _fingerprint(serial[kind]) == _fingerprint(parallel[kind])

    def test_sweep_results_keyed_in_submission_order(self):
        from repro.analysis.sweep import sweep_history_sizes

        cfg = _cfg(FilterKind.PA)
        out = sweep_history_sizes("em3d", cfg, entries=(1024, 4096), n_insts=N, workers=2)
        assert list(out) == [1024, 4096]
        for size, result in out.items():
            assert result.cycles > 0


@pytest.mark.parametrize("engine", ["pipeline", "kernel"])
def test_engines_run_through_jobs(engine):
    [r] = run_jobs([SimulationJob("wave5", _cfg(), N, 0, engine=engine)], workers=1)
    assert r.cycles > 0 and r.instructions > 0
