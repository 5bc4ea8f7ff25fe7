"""ResultCache size budget: parsing, LRU eviction, multi-process safety."""

import os
import time

import pytest

from repro.analysis.result_cache import (
    ResultCache,
    default_budget,
    parse_budget,
    run_key,
)
from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig

N = 6_000


@pytest.fixture(scope="module")
def sample_result():
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(1_500)
    return run_workload("em3d", cfg, N, 0)


def _keys(n):
    cfg = SimulationConfig.paper_default(FilterKind.PA)
    return [run_key("em3d", cfg, N, seed) for seed in range(n)]


def _fill(cache, result, n):
    """Write ``n`` entries with strictly increasing mtimes (oldest first)."""
    keys = _keys(n)
    for i, key in enumerate(keys):
        cache.put(key, result)
        os.utime(cache.directory / f"{key}.json", (i, i))
    return keys


def _entry_size(tmp_path, result):
    probe = ResultCache(tmp_path / "probe")
    key = _keys(1)[0]
    probe.put(key, result)
    return (probe.directory / f"{key}.json").stat().st_size


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class TestParseBudget:
    def test_plain_bytes_and_suffixes(self):
        assert parse_budget("4096") == 4096
        assert parse_budget("64k") == 64 * 1024
        assert parse_budget("200M") == 200 * 1024**2
        assert parse_budget("2g") == 2 * 1024**3
        assert parse_budget("1.5k") == 1536

    def test_none_and_empty_mean_unbounded(self):
        assert parse_budget(None) is None
        assert parse_budget("") is None
        assert parse_budget("   ") is None

    @pytest.mark.parametrize("bad", ["10gb", "lots", "k", "-5m", "0", "inf", "1e400", "nan"])
    def test_malformed_or_nonpositive_raises(self, bad):
        with pytest.raises(ValueError, match="cache budget"):
            parse_budget(bad)

    def test_default_budget_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)
        assert default_budget() is None
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "8k")
        assert default_budget() == 8 * 1024

    def test_env_budget_reaches_the_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "123456")
        assert ResultCache(tmp_path / "c").budget_bytes == 123456

    def test_explicit_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c", budget=0)


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_unbudgeted_cache_never_evicts(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path / "c")
        _fill(cache, sample_result, 6)
        assert len(cache) == 6 and cache.evicted == 0

    def test_oldest_entries_go_first(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=3 * size + size // 2)
        keys = _keys(6)
        for key in keys[:-1]:
            cache.put(key, sample_result)
            # age what's there so far; the next put's victim is unambiguous
            for j, k in enumerate(keys):
                path = cache.directory / f"{k}.json"
                if path.exists():
                    os.utime(path, (j, j))
        cache.put(keys[-1], sample_result)
        survivors = {p.stem for p in cache.directory.glob("*.json")}
        assert cache.evicted >= 2
        assert keys[-1] in survivors  # the entry just written is never evicted
        assert keys[0] not in survivors  # the coldest entry went first

    def test_hit_bumps_recency_and_protects_the_entry(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=3 * size + size // 2)
        keys = _fill(cache, sample_result, 3)
        assert cache.get(keys[0]) is not None  # touch the oldest: now newest
        cache.put(_keys(4)[-1], sample_result)  # forces one eviction
        survivors = {p.stem for p in cache.directory.glob("*.json")}
        assert keys[0] in survivors  # protected by the hit...
        assert keys[1] not in survivors  # ...so the next-oldest was evicted

    def test_eviction_counter_surfaces_in_stats(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=2 * size + size // 2)
        _fill(cache, sample_result, 5)
        assert cache.stats["evicted"] == cache.evicted >= 3
        assert cache.stats["budget_bytes"] == cache.budget_bytes

    def test_evicted_entry_is_an_honest_miss(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=size + size // 2)
        keys = _fill(cache, sample_result, 3)
        assert cache.get(keys[0]) is None
        assert cache.misses == 1 and cache.quarantined == 0

    def test_budget_large_enough_evicts_nothing(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=100 * size)
        _fill(cache, sample_result, 4)
        assert len(cache) == 4 and cache.evicted == 0

    def test_busy_lock_skips_eviction_without_blocking(self, tmp_path, sample_result):
        fcntl = pytest.importorskip("fcntl")
        size = _entry_size(tmp_path, sample_result)
        cache = ResultCache(tmp_path / "c", budget=size)
        cache.put(_keys(1)[0], sample_result)
        holder = open(cache.directory / ".evict.lock", "w")
        try:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            started = time.monotonic()
            cache.put(_keys(2)[1], sample_result)  # would need to evict
            assert time.monotonic() - started < 1.0  # did not block on the lock
            assert len(cache) == 2  # over budget, deferred to the lock holder
        finally:
            holder.close()
        cache.put(_keys(3)[2], sample_result)  # lock free again: evicts now
        assert len(cache) <= 2 and cache.evicted >= 1

    def test_two_cache_instances_share_the_directory_safely(self, tmp_path, sample_result):
        size = _entry_size(tmp_path, sample_result)
        a = ResultCache(tmp_path / "c", budget=2 * size + size // 2)
        b = ResultCache(tmp_path / "c", budget=2 * size + size // 2)
        keys = _keys(4)
        a.put(keys[0], sample_result)
        b.put(keys[1], sample_result)
        a.put(keys[2], sample_result)
        b.put(keys[3], sample_result)
        assert len(a) <= 2
        total = sum(p.stat().st_size for p in a.directory.glob("*.json"))
        assert total <= a.budget_bytes


_CONCURRENT_WRITER = """
import json, sys
from repro.analysis.result_cache import ResultCache, result_from_dict, run_key
from repro.common.config import FilterKind, SimulationConfig

cache_dir, result_json, budget, base = sys.argv[1:5]
with open(result_json) as fh:
    result = result_from_dict(json.load(fh))
cache = ResultCache(cache_dir, budget=int(budget))
cfg = SimulationConfig.paper_default(FilterKind.PA)
last = None
for seed in range(int(base), int(base) + 4):
    sys.stdin.readline()  # the parent's "go" for this round
    last = run_key("em3d", cfg, 6000, seed)
    cache.put(last, result)
    print("ack", flush=True)
print(json.dumps({"evicted": cache.evicted, "last": last}))
"""


def test_concurrent_evictors_never_double_count(tmp_path, sample_result):
    """Two processes evicting from one directory: every removed file is
    charged to exactly one ``evicted`` counter (the flock serialises the
    pass; a lost unlink race must not be counted by the loser)."""
    import json
    import subprocess
    import sys
    import threading
    from pathlib import Path

    from repro.analysis.result_cache import result_to_dict

    size = _entry_size(tmp_path, sample_result)
    cache_dir = tmp_path / "shared"
    # parent pre-fills 6 cold entries through an UNBUDGETED handle, so
    # the parent itself never evicts and the arithmetic below is clean
    _fill(ResultCache(cache_dir), sample_result, 6)
    result_json = tmp_path / "result.json"
    result_json.write_text(json.dumps(result_to_dict(sample_result)))

    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_BUDGET", None)
    budget = 3 * size + size // 2
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_WRITER, str(cache_dir),
             str(result_json), str(budget), base],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for base in ("100", "200")
    ]
    # Lock-step rounds: both writers put once per round, racing each
    # other's eviction pass, and no round starts before both have acked.
    # Each writer's last put therefore lands in the final round, however
    # late either process started.  A hung writer is killed after 120 s,
    # which ends its output and fails the read below.
    watchdog = threading.Timer(120, lambda: [proc.kill() for proc in procs])
    watchdog.start()
    try:
        for _ in range(4):
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            for proc in procs:
                assert proc.stdout.readline() == "ack\n"
        reports = []
        for proc in procs:
            proc.stdin.close()
            out = proc.stdout.read()  # through the buffer the acks were read from
            proc.wait(timeout=120)
            assert proc.returncode == 0, out
            reports.append(json.loads(out))
    finally:
        watchdog.cancel()

    survivors = {p.stem for p in cache_dir.glob("*.json")}
    written = 6 + 8
    evicted_total = sum(r["evicted"] for r in reports)
    # exactly-once accounting: files gone == evictions claimed, no
    # double count when both processes raced for the same victim
    assert evicted_total == written - len(survivors)
    assert evicted_total > 0  # the budget really did force evictions
    # each writer's newest entry survived the other's eviction passes
    for r in reports:
        assert r["last"] in survivors
