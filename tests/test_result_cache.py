"""Persistent result cache: keys, round-trips, invalidation, tolerance."""

import json
import os

import pytest

from repro.analysis.result_cache import (
    MODEL_VERSION,
    ResultCache,
    config_fingerprint,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
    run_key,
)
from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig

N = 8_000


@pytest.fixture(scope="module")
def sample_result():
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(2_000)
    return run_workload("em3d", cfg, N, 0)


class TestRunKey:
    def test_stable_across_equal_configs(self):
        a = SimulationConfig.paper_default(FilterKind.PA)
        b = SimulationConfig.paper_default(FilterKind.PA)
        assert a is not b
        assert run_key("em3d", a, N, 0) == run_key("em3d", b, N, 0)

    def test_sensitive_to_config_content(self):
        base = SimulationConfig.paper_default(FilterKind.PA)
        assert run_key("em3d", base, N, 0) != run_key(
            "em3d", base.with_filter(table_entries=8192), N, 0
        )

    def test_version_tag_invalidates(self):
        cfg = SimulationConfig.paper_default()
        assert run_key("em3d", cfg, N, 0) != run_key("em3d", cfg, N, 0, version="v-next")
        assert run_key("em3d", cfg, N, 0) == run_key("em3d", cfg, N, 0, version=MODEL_VERSION)

    def test_address_is_pinned(self):
        # A cache address names results already on disk: a change to the
        # key's encoding orphans every stored entry, so it must be made on
        # purpose, through MODEL_VERSION.
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        assert run_key("em3d", cfg, 100000, 0, True, "kernel") == (
            "120fc231f3281621c719ca52df8064fe3af80ee6f0a07a7eec9c2630cde31ef4"
        )

    def test_fingerprint_is_json_serialisable(self):
        fp = config_fingerprint(SimulationConfig.paper_32kb(FilterKind.PC))
        text = json.dumps(fp, sort_keys=True)
        assert "pc" in text  # enum reduced to its value


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, sample_result):
        restored = result_from_dict(result_to_dict(sample_result))
        assert restored.trace_name == sample_result.trace_name
        assert restored.filter_name == sample_result.filter_name
        assert restored.instructions == sample_result.instructions
        assert restored.cycles == sample_result.cycles
        assert restored.prefetch == sample_result.prefetch
        assert restored.per_source == sample_result.per_source
        assert restored.l1_demand_accesses == sample_result.l1_demand_accesses
        assert restored.l1_demand_misses == sample_result.l1_demand_misses
        assert restored.stats.flat() == sample_result.stats.flat()
        assert restored.ipc == pytest.approx(sample_result.ipc)
        assert restored.bad_good_ratio == pytest.approx(sample_result.bad_good_ratio)

    def test_serialised_form_is_plain_json(self, sample_result):
        text = json.dumps(result_to_dict(sample_result))
        assert json.loads(text)["trace_name"] == sample_result.trace_name


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        digest = cache.put("abc123", sample_result)
        entry = cache.get("abc123")
        assert entry is not None
        restored, stored = entry
        assert stored == digest  # what a run journal records and checks
        assert restored.cycles == sample_result.cycles
        assert restored.stats.flat() == sample_result.stats.flat()
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_corrupt_file_tolerated_and_removed(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("k", sample_result)
        path = tmp_path / "k.json"
        path.write_text("{ not json")
        assert cache.get("k") is None
        assert not path.exists()  # corrupt entry cleaned up

    def test_structurally_stale_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({"schema": "ancient"}))
        assert cache.get("old") is None

    def test_clear_and_len(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("a", sample_result)
        cache.put("b", sample_result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        cache = ResultCache()
        assert cache.directory == tmp_path / "envcache"

    def test_default_dir_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(os.path.join(".cache", "repro"))


class TestHealthCounters:
    def test_quarantined_counter_tracks_corruption(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("k", sample_result)
        (tmp_path / "k.json").write_text("\x00 not json")
        assert cache.get("k") is None
        assert cache.quarantined == 1
        assert cache.stats == {
            "hits": 0, "misses": 1, "quarantined": 1, "stale_tmp_removed": 0,
            "evicted": 0, "budget_bytes": 0, "pressure_skipped": 0,
        }

    def test_plain_miss_is_not_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.stats["quarantined"] == 0 and cache.stats["misses"] == 1

    def test_injected_corruption_is_observable(self, tmp_path, sample_result):
        """corrupt-cache fault -> garbled entry -> quarantined, not wedged."""
        from repro.common.faults import inject_faults

        cache = ResultCache(tmp_path)
        with inject_faults("corrupt-cache@cache"):
            cache.put("k", sample_result)
        fresh = ResultCache(tmp_path)
        assert fresh.get("k") is None
        assert fresh.quarantined == 1


class TestTmpFileHygiene:
    def test_tmp_paths_are_unique_within_a_process(self, tmp_path):
        from repro.common.diskio import tmp_path_for

        target = tmp_path / "k.json"
        a, b = tmp_path_for(target), tmp_path_for(target)
        assert a != b
        assert f".tmp.{os.getpid()}." in a.name and f".tmp.{os.getpid()}." in b.name

    def test_init_sweeps_only_stale_tmp_files(self, tmp_path, sample_result):
        old = tmp_path / "dead.json.tmp.999.0"
        old.write_text("orphan")
        os.utime(old, (1, 1))  # ancient mtime: clearly a dead writer's
        fresh = tmp_path / "live.json.tmp.888.0"
        fresh.write_text("in flight")

        cache = ResultCache(tmp_path)
        assert cache.stale_tmp_removed == 1
        assert not old.exists()
        assert fresh.exists()  # a live writer's file is left alone
        cache.put("k", sample_result)  # and the cache still works
        assert cache.get("k") is not None
