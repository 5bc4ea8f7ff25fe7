"""Unit tests for the set-associative cache with PIB/RIB bits."""

import random

import pytest

from repro.common.config import CacheConfig, SimulationConfig
from repro.mem.cache import Cache, EvictedLine, FillSource


def direct_mapped(size=1024, line=32):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, assoc=1), "l1")


def four_way(size=4096, line=32):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, assoc=4), "l2")


def held(cache):
    """The line objects a cache holds, set by set."""
    return sum(len(entries) for entries in cache.sets)


class TestBasicOperation:
    def test_miss_then_hit(self):
        c = direct_mapped()
        hit, _ = c.access(5, False, 0)
        assert not hit
        c.fill(5, 0)
        hit, _ = c.access(5, False, 1)
        assert hit

    def test_line_address(self):
        c = direct_mapped(line=32)
        assert c.line_address(0x40) == 2

    def test_occupancy(self):
        c = direct_mapped(size=128)  # 4 lines
        for i in range(3):
            c.fill(i, i)
        assert c.occupancy == 3

    def test_contains(self):
        c = direct_mapped()
        assert not c.contains(9)
        c.fill(9, 0)
        assert c.contains(9)


class TestEviction:
    def test_direct_mapped_conflict(self):
        c = direct_mapped(size=1024, line=32)  # 32 sets
        c.fill(0, 0)
        evicted = c.fill(32, 1)  # same set (0), conflicts
        assert evicted is not None
        assert evicted.line_addr == 0

    def test_eviction_callback(self):
        c = direct_mapped(size=1024)
        seen = []
        c.on_evict = seen.append
        c.fill(0, 0)
        c.fill(32, 1)
        assert len(seen) == 1 and seen[0].line_addr == 0

    def test_lru_within_set(self):
        c = four_way(size=4 * 32 * 4)  # 4 sets, 4 ways
        for i in range(4):
            c.fill(i * 4, i)  # all land in set 0
        c.access(0, False, 10)  # refresh line 0
        evicted = c.fill(16, 11)
        assert evicted.line_addr == 4  # line 4 was LRU

    def test_fill_prefers_invalid_way(self):
        c = four_way(size=4 * 32 * 4)
        c.fill(0, 0)
        assert c.fill(4, 1) is None  # invalid ways remain

    def test_dirty_tracked_through_eviction(self):
        c = direct_mapped(size=1024)
        c.fill(0, 0)
        c.access(0, True, 1)  # store marks dirty
        evicted = c.fill(32, 2)
        assert evicted.dirty


class TestPrefetchBits:
    def test_pib_set_on_prefetch_fill(self):
        c = direct_mapped()
        c.fill(7, 0, FillSource.NSP, trigger_pc=0x400)
        pib, rib, _ = c.probe_bits(7)
        assert pib and not rib

    def test_demand_fill_clears_pib(self):
        c = direct_mapped()
        c.fill(7, 0, FillSource.DEMAND)
        pib, rib, _ = c.probe_bits(7)
        assert not pib

    def test_rib_set_on_first_use(self):
        c = direct_mapped()
        c.fill(7, 0, FillSource.SDP)
        hit, first = c.access(7, False, 1)
        assert hit and first
        hit, first = c.access(7, False, 2)
        assert hit and not first  # only the first reference reports

    def test_eviction_carries_feedback_triple(self):
        c = direct_mapped(size=1024)
        c.fill(0, 0, FillSource.SOFTWARE, trigger_pc=0xABC)
        c.access(0, False, 1)
        ev = c.fill(32, 2)
        assert ev.pib and ev.rib
        assert ev.trigger_pc == 0xABC
        assert ev.source is FillSource.SOFTWARE

    def test_unreferenced_prefetch_evicts_with_rib_clear(self):
        c = direct_mapped(size=1024)
        c.fill(0, 0, FillSource.NSP, trigger_pc=1)
        ev = c.fill(32, 1)
        assert ev.pib and not ev.rib


class TestNspTag:
    def test_consume_clears(self):
        c = direct_mapped()
        c.fill(3, 0, FillSource.NSP, nsp_tag=True)
        assert c.consume_nsp_tag(3)
        assert not c.consume_nsp_tag(3)  # one-shot

    def test_absent_line(self):
        assert not direct_mapped().consume_nsp_tag(5)

    def test_one_probe_matches_consume_then_access(self):
        # The demand path's single-lookup call against the two calls it
        # replaces, on twin caches under the same mixed traffic.
        rng = random.Random(7)
        fused, split = four_way(size=512), four_way(size=512)  # 4 sets x 4 ways
        returns = []
        for now in range(3000):
            line = rng.randrange(48)
            if rng.random() < 0.4:
                source, nsp_tag = rng.choice(list(FillSource)), rng.random() < 0.5
                for cache in (fused, split):
                    cache.fill(line, now, source, trigger_pc=line, nsp_tag=nsp_tag)
            else:
                is_write = rng.random() < 0.3
                nsp_tag = split.consume_nsp_tag(line)
                expected = (*split.access(line, is_write, now), nsp_tag)
                assert fused.consume_nsp_tag_and_access(line, is_write, now) == expected
                returns.append(expected)

        def lines(cache):
            return [
                [(ln.tag, ln.dirty, ln.pib, ln.rib, ln.nsp_tag, ln.stamp) for ln in entries]
                for entries in cache.sets
            ]

        assert lines(fused) == lines(split)
        assert fused.stats.flat() == split.stats.flat()
        # Every outcome the fused call folds together occurred.
        assert {False, True} == {r[0] for r in returns} == {r[1] for r in returns} == {r[2] for r in returns}


class TestDuplicateFill:
    def test_refreshes_not_duplicates(self):
        c = direct_mapped()
        c.fill(4, 0)
        assert c.fill(4, 1) is None
        assert c.occupancy == 1
        assert c.stats.get("duplicate_fill") == 1

    def test_duplicate_fill_never_downgrades_demand(self):
        c = direct_mapped()
        c.fill(4, 0, FillSource.DEMAND)
        c.fill(4, 1, FillSource.NSP)
        pib, _, _ = c.probe_bits(4)
        assert not pib  # stays a demand line


class TestFlushInvalidate:
    def test_flush_yields_all_and_empties(self):
        c = direct_mapped(size=1024)
        for i in range(5):
            c.fill(i, i, FillSource.NSP, trigger_pc=i)
        records = list(c.flush())
        assert len(records) == 5
        assert c.occupancy == 0

    def test_flush_fires_callback(self):
        c = direct_mapped()
        seen = []
        c.on_evict = seen.append
        c.fill(1, 0)
        list(c.flush())
        assert len(seen) == 1


class TestResidentLinesOnly:
    def test_fresh_paper_l2_holds_no_lines(self):
        l2 = SimulationConfig.paper_default().hierarchy.l2
        c = Cache(l2, "l2")
        assert len(c.sets) == l2.num_sets == 4096
        assert held(c) == 0

    def test_fills_append_in_way_order_then_evict_lru_first_in_way_order(self):
        c = four_way(size=4 * 32 * 4)  # 4 sets, 4 ways
        for way, line in enumerate((0, 4, 8, 12)):
            assert c.fill(line, 5) is None  # one stamp for all: a four-way tie
            assert [entry.tag for entry in c.sets[0]] == [0, 4, 8, 12][: way + 1]
        assert c.fill(16, 6).line_addr == 0  # tie broken by way order
        assert [entry.tag for entry in c.sets[0]] == [16, 4, 8, 12]
        c.access(4, False, 7)
        assert c.fill(20, 8).line_addr == 8  # 4 was refreshed; 8 is next in way order
        assert [entry.tag for entry in c.sets[0]] == [16, 4, 20, 12]
        assert all(len(entries) == 0 for entries in c.sets[1:])

    def test_flush_yields_set_way_order_and_empties_every_set(self):
        c = Cache(CacheConfig(size_bytes=4 * 32 * 2, line_bytes=32, assoc=2), "l1")  # 4 sets
        for t, line in enumerate((6, 5, 1, 4, 8, 3)):
            c.fill(line, t)
        assert [record.line_addr for record in c.flush()] == [4, 8, 5, 1, 6, 3]
        assert all(entries == [] for entries in c.sets)

    def test_occupancy_counts_the_held_lines_throughout(self):
        c = Cache(CacheConfig(size_bytes=4 * 32 * 2, line_bytes=32, assoc=2), "l1")
        assert c.occupancy == held(c) == 0
        for t, line in enumerate((0, 1, 4, 0, 8, 2, 12, 5, 9, 3, 13)):
            c.fill(line, t, FillSource.NSP if t % 2 else FillSource.DEMAND)
            assert c.occupancy == held(c)
        assert held(c) == 6  # sets 0 and 1 full, sets 2 and 3 one line each
        for _ in c.flush():
            assert c.occupancy == held(c)
        assert c.occupancy == held(c) == 0
