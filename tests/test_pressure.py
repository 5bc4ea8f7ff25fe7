"""Resource-pressure guards: drain-and-exit beats dying mid-write.

The promises under test:

* :class:`PressureGuard` reports real disk/memory pressure and honours
  injected ``enospc@pressure`` / ``mem-pressure@pressure`` faults, so
  the whole pressure envelope is testable without filling a filesystem;
* a draining worker under pressure stops claiming and exits cleanly
  (``stats.stopped == "pressure"``) with everything it already
  published intact — and the CLI maps that to exit code 75 so a
  supervisor can tell "host problem" from "crash";
* :class:`ResultCache` and :class:`TraceStore` writes are *skipped and
  counted* under pressure instead of risking torn files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.parallel import SimulationJob, execute_job
from repro.analysis.resilience import RetryPolicy
from repro.analysis.result_cache import ResultCache
from repro.analysis.worker import drain_queue
from repro.analysis.workqueue import POISON_THRESHOLD_ENV, FileQueue, default_poison_threshold
from repro.common.config import FilterKind, SimulationConfig
from repro.common.diskio import (
    MAX_RSS_ENV,
    MIN_FREE_ENV,
    PressureGuard,
    current_rss_bytes,
    default_max_rss_bytes,
    default_min_free_bytes,
    free_disk_bytes,
    parse_size,
)
from repro.common.faults import inject_faults
from repro.trace.store import TraceStore

N = 1_500

FAST = RetryPolicy(max_attempts=1, backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _jobs(n, workload="em3d"):
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
    return [SimulationJob(workload, cfg, N, seed=i) for i in range(n)]


# ----------------------------------------------------------------------
# parse_size
# ----------------------------------------------------------------------
class TestParseSize:
    def test_plain_bytes_and_suffixes(self):
        assert parse_size("4096") == 4096
        assert parse_size("64k") == 64 * 1024
        assert parse_size("200M") == 200 * 1024**2
        assert parse_size("2g") == 2 * 1024**3

    @pytest.mark.parametrize("bad", ["10gb", "lots", "k", "-5m", "0"])
    def test_malformed_or_nonpositive_raises(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)


# ----------------------------------------------------------------------
# Environment knobs: a malformed value is an error, not the default
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "env, value, read",
    [
        (MAX_RSS_ENV, "2gb", default_max_rss_bytes),
        (MIN_FREE_ENV, "64mb", default_min_free_bytes),
        (POISON_THRESHOLD_ENV, "five", default_poison_threshold),
    ],
    ids=["max-rss", "min-free", "poison-threshold"],
)
def test_malformed_env_knob_raises_naming_it(monkeypatch, env, value, read):
    monkeypatch.setenv(env, value)
    with pytest.raises(ValueError, match=env):
        read()


def test_worker_cli_rejects_a_malformed_rss_ceiling(tmp_path):
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env[MAX_RSS_ENV] = "2gb"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "worker", "--queue-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "configuration error" in proc.stderr and MAX_RSS_ENV in proc.stderr


@pytest.mark.parametrize("route", ["flag", "env"])
def test_rejected_worker_leaves_no_pool_marker(tmp_path, monkeypatch, route):
    """In-process, a worker rejected for a malformed RSS ceiling does not
    brand the process a pool worker (which would make every later
    ``run_jobs`` in it serial)."""
    from repro.analysis.parallel import _POOL_WORKER_ENV
    from repro.cli import main

    monkeypatch.setenv(_POOL_WORKER_ENV, "")  # so teardown removes any leak
    monkeypatch.delenv(_POOL_WORKER_ENV)
    argv = ["worker", "--queue-dir", str(tmp_path)]
    if route == "flag":
        argv += ["--max-rss", "2gb"]
    else:
        monkeypatch.setenv(MAX_RSS_ENV, "2gb")
    assert main(argv) == 2
    assert _POOL_WORKER_ENV not in os.environ


# ----------------------------------------------------------------------
# PressureGuard: real measurements
# ----------------------------------------------------------------------
class TestGuard:
    def test_quiet_when_resources_are_fine(self, tmp_path):
        guard = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None)
        assert guard.check() is None
        assert guard.checks == 1

    def test_enospc_when_the_floor_exceeds_the_disk(self, tmp_path):
        free = free_disk_bytes(tmp_path)
        assert free is not None and free > 0
        guard = PressureGuard(tmp_path, min_free_bytes=free * 1000, max_rss_bytes=None)
        reason = guard.check()
        assert reason is not None and reason.startswith("enospc")

    def test_mem_pressure_when_rss_exceeds_the_ceiling(self, tmp_path):
        assert current_rss_bytes() is not None  # /proc or ru_maxrss fallback
        guard = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=1)
        reason = guard.check()
        assert reason is not None and reason.startswith("mem-pressure")

    def test_missing_directory_measures_nearest_ancestor(self, tmp_path):
        guard = PressureGuard(tmp_path / "not" / "yet" / "created", min_free_bytes=1,
                              max_rss_bytes=None)
        assert guard.check() is None


# ----------------------------------------------------------------------
# PressureGuard: injected faults (the pressure fault site)
# ----------------------------------------------------------------------
class TestInjectedPressure:
    def test_enospc_fault_fills_the_disk(self, tmp_path):
        guard = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None, key="victim")
        with inject_faults("enospc@pressure:match=victim"):
            reason = guard.check()
        assert reason is not None and reason.startswith("enospc")
        assert guard.check() is None  # plan gone, pressure gone

    def test_mem_pressure_fault_ignores_real_rss(self, tmp_path):
        guard = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None, key="victim")
        with inject_faults("mem-pressure@pressure:match=victim"):
            reason = guard.check()
        assert reason is not None and reason.startswith("mem-pressure")

    def test_attempt_windows_open_and_close(self, tmp_path):
        guard = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None, key="w")
        with inject_faults("enospc@pressure:attempts=1"):
            assert guard.check() is None  # check 0: window closed
            assert guard.check() is not None  # check 1: window open
            assert guard.check() is None  # check 2: closed again

    def test_match_scopes_the_fault_to_one_guard(self, tmp_path):
        hit = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None, key="s2r0-ab")
        missed = PressureGuard(tmp_path, min_free_bytes=1, max_rss_bytes=None, key="s1r0-cd")
        with inject_faults("enospc@pressure:match=s2r0"):
            assert hit.check() is not None
            assert missed.check() is None


# ----------------------------------------------------------------------
# Store writes under pressure: skip and count, never tear
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def one_result():
    return execute_job(_jobs(1)[0])


def test_result_cache_skips_writes_under_pressure(tmp_path, one_result):
    cache = ResultCache(tmp_path / "cache")
    with inject_faults("enospc@pressure"):
        cache.put("deadbeef01", one_result)
    assert cache.stats["pressure_skipped"] == 1
    assert cache.get("deadbeef01") is None  # nothing half-written either
    cache.put("deadbeef01", one_result)  # pressure over: writes again
    assert cache.get("deadbeef01") is not None


def test_trace_store_skips_writes_under_pressure(tmp_path):
    store = TraceStore(tmp_path / "traces")
    with inject_faults("enospc@pressure"):
        trace = store.get_or_build("em3d", n_insts=N, seed=0)
    assert trace is not None  # the caller still gets its trace
    assert store.stats["pressure_skipped"] >= 1
    assert not list((tmp_path / "traces").glob("*.npz"))


# ----------------------------------------------------------------------
# Draining under pressure
# ----------------------------------------------------------------------
def test_drain_exits_cleanly_on_pressure_and_a_peer_finishes(tmp_path):
    jobs = _jobs(4)
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    queue.submit(jobs)
    guard = PressureGuard(queue.root, min_free_bytes=1, max_rss_bytes=None, key="q|w1")
    with inject_faults("enospc@pressure:match=w1,attempts=2"):
        stats = drain_queue(queue, worker="w1", batch=1, policy=FAST, poll=0.05, guard=guard)
    # two rounds ran (checks 0 and 1 passed); check 2 hit the window
    assert stats.stopped == "pressure"
    assert stats.executed == 2
    assert stats.pressure_checks == 3
    assert any(d.startswith("pressure-exit: enospc") for d in stats.degradations)
    # the exit was clean: published work intact, no lease left hanging
    assert queue.counts()["done"] == 2
    assert queue.outstanding() == (2, 0)
    # an unpressured peer (or the restarted worker) finishes the drain
    rescue = drain_queue(
        FileQueue(tmp_path / "q", lease_ttl=5.0), worker="w2", batch=2, policy=FAST, poll=0.05
    )
    assert rescue.stopped is None
    assert queue.counts()["done"] == 4


def test_worker_cli_maps_pressure_to_exit_75(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    queue.submit(_jobs(2))
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = "enospc@pressure:match=pressed"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "worker", "--queue-dir", str(queue.root),
         "--name", "pressed", "--batch", "1", "--poll", "0.05"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 75, proc.stdout + proc.stderr
    assert "pressure" in proc.stdout + proc.stderr
    assert queue.outstanding() == (2, 0)  # nothing claimed, nothing lost
