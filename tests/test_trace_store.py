"""Trace store: on-disk round-trips, health counters, run_jobs wiring."""

import os

import numpy as np

from repro.analysis.parallel import SimulationJob, run_jobs
from repro.common.config import FilterKind, SimulationConfig
from repro.trace.store import TraceStore, trace_key
from repro.workloads import build_trace

N = 8_000


def _trace(workload="em3d", n=N, seed=0):
    return build_trace(workload, n, seed)


def _same_trace(a, b):
    return (
        a.name == b.name
        and np.array_equal(a.iclass, b.iclass)
        and np.array_equal(a.pc, b.pc)
        and np.array_equal(a.addr, b.addr)
        and np.array_equal(a.taken, b.taken)
    )


class TestTraceKey:
    def test_stable(self):
        assert trace_key("em3d", N, 0) == trace_key("em3d", N, 0)

    def test_sensitive_to_every_input(self):
        base = trace_key("em3d", N, 0)
        variants = {
            trace_key("mcf", N, 0),
            trace_key("em3d", N + 1, 0),
            trace_key("em3d", N, 1),
            trace_key("em3d", N, 0, software_prefetch=False),
            trace_key("em3d", N, 0, lookahead_lines=8),
            trace_key("em3d", N, 0, version="999"),
        }
        assert base not in variants and len(variants) == 6


class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = _trace()
        key = trace_key("em3d", N, 0)
        assert store.get(key) is None
        store.put(key, trace)
        loaded = store.get(key)
        assert loaded is not None and _same_trace(trace, loaded)
        assert len(store) == 1

    def test_get_or_build_hits_second_time(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.get_or_build("mcf", N, 0)
        assert (store.hits, store.misses) == (0, 1)
        second = store.get_or_build("mcf", N, 0)
        assert (store.hits, store.misses) == (1, 1)
        assert _same_trace(first, second)

    def test_built_trace_simulates_identically(self, tmp_path):
        """A store round-trip must not perturb simulation results."""
        from repro.analysis.sweep import run_workload

        store = TraceStore(tmp_path)
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        direct = run_workload("gzip", cfg, N, 0)
        via_store = run_workload("gzip", cfg, N, 0, trace=store.get_or_build("gzip", N, 0))
        assert direct.cycles == via_store.cycles
        assert direct.prefetch == via_store.prefetch

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key("em3d", N, 0)
        store.put(key, _trace())
        path = store._path(key)
        path.write_bytes(b"not an npz archive")
        assert store.get(key) is None
        assert not path.exists()

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(trace_key("em3d", N, 0), _trace())
        store.put(trace_key("mcf", N, 0), _trace("mcf"))
        assert store.clear() == 2
        assert len(store) == 0

    def test_respects_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = TraceStore()
        assert str(store.directory).startswith(str(tmp_path))


class TestRunJobsIntegration:
    def _jobs(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
        return [SimulationJob("em3d", cfg, N, s) for s in range(2)]

    def test_run_jobs_with_trace_store(self, tmp_path):
        store = TraceStore(tmp_path)
        results = run_jobs(self._jobs(), workers=1, trace_store=store)
        assert all(r.cycles > 0 for r in results)
        assert len(store) == 2  # one stored trace per distinct seed
        again = run_jobs(self._jobs(), workers=1, trace_store=store)
        assert [r.cycles for r in again] == [r.cycles for r in results]
        assert store.hits >= 2

    def test_serial_batch_acquires_each_trace_once(self, tmp_path):
        """2 traces x 3 configs: one store read per trace, not per job."""
        configs = [
            SimulationConfig.paper_default(kind).with_warmup(N // 4)
            for kind in (FilterKind.NONE, FilterKind.PA, FilterKind.PC)
        ]
        jobs = [SimulationJob(w, cfg, N, 0) for w in ("em3d", "mcf") for cfg in configs]
        store = TraceStore(tmp_path)
        results = run_jobs(jobs, workers=1, trace_store=store)
        assert all(r.cycles > 0 for r in results)
        assert store.hits + store.misses == 2

    def test_parallel_results_match_serial_with_sharing(self):
        jobs = self._jobs()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        for a, b in zip(serial, parallel):
            assert (a.cycles, a.prefetch) == (b.cycles, b.prefetch)


class TestStoreHealthCounters:
    def test_quarantined_counter_tracks_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key("em3d", N, 0)
        store.put(key, _trace())
        (tmp_path / f"{key}.npz").write_bytes(b"\x00 not a zip")
        assert store.get(key) is None
        assert store.quarantined == 1
        assert store.stats == {
            "hits": 0, "misses": 1, "quarantined": 1, "stale_tmp_removed": 0,
            "pressure_skipped": 0,
        }

    def test_injected_corruption_is_observable(self, tmp_path):
        from repro.common.faults import inject_faults

        store = TraceStore(tmp_path)
        key = trace_key("em3d", N, 0)
        with inject_faults("corrupt-cache@cache"):
            store.put(key, _trace())
        fresh = TraceStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_init_sweeps_stale_tmp_files(self, tmp_path):
        old = tmp_path / "dead.npz.tmp.999.0"
        old.write_bytes(b"orphan")
        os.utime(old, (1, 1))
        store = TraceStore(tmp_path)
        assert store.stale_tmp_removed == 1 and not old.exists()
