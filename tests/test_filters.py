"""Unit tests for the pollution filters (history table, PA, PC, null, adaptive)."""

import pytest

from repro.filters.adaptive import AdaptiveFilter
from repro.filters.history_table import HistoryTable
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter
from repro.mem.cache import FillSource
from repro.prefetch.base import PrefetchRequest


def req(line=100, pc=0x400, source=FillSource.NSP):
    return PrefetchRequest(line, pc, source)


class TestHistoryTable:
    def test_initially_optimistic(self):
        t = HistoryTable(entries=64)
        assert t.predict_good(12345)  # "first mapped ... assumed to be good"

    def test_two_bad_strikes_latch_reject(self):
        t = HistoryTable(entries=64, initial_value=2, threshold=2)
        t.train(5, False)
        assert not t.predict_good(5)  # 2 -> 1: below threshold
        t.train(5, True)
        assert t.predict_good(5)

    def test_distinct_keys_independent(self):
        t = HistoryTable(entries=4096)
        t.train(1, False)
        t.train(1, False)
        assert t.predict_good(2)

    def test_storage_bytes_paper_default(self):
        assert HistoryTable(entries=4096, counter_bits=2).storage_bytes == 1024

    def test_reset_restores_initial(self):
        t = HistoryTable(entries=16, initial_value=3)
        t.train(0, False)
        t.reset()
        assert t.fraction_allowing() == 1.0

    def test_non_pow2_rejected(self):
        with pytest.raises(ValueError):
            HistoryTable(entries=1000)


class TestNullFilter:
    def test_allows_everything(self):
        f = NullFilter()
        assert all(f.should_prefetch(req(line=i)) for i in range(50))
        assert f.stats.get("allowed") == 50

    def test_feedback_counted(self):
        f = NullFilter()
        f.on_feedback(1, 0x400, True)
        f.on_feedback(1, 0x400, False)
        assert f.stats.get("feedback_good") == 1
        assert f.stats.get("feedback_bad") == 1


class TestPAFilter:
    def test_keys_on_line_address(self):
        f = PAFilter(entries=4096)
        f.on_feedback(line_addr=100, trigger_pc=0x400, referenced=False)
        f.on_feedback(line_addr=100, trigger_pc=0x999, referenced=False)
        # Line 100 latched bad regardless of PC; other lines unaffected.
        assert not f.should_prefetch(req(line=100, pc=0x123))
        assert f.should_prefetch(req(line=101, pc=0x400))

    def test_learns_good_again(self):
        f = PAFilter(entries=64)
        for _ in range(3):
            f.on_feedback(7, 0, False)
        assert not f.should_prefetch(req(line=7))
        for _ in range(2):
            f.on_feedback(7, 0, True)
        assert f.should_prefetch(req(line=7))

    def test_decision_stats(self):
        f = PAFilter(entries=64)
        f.should_prefetch(req())
        assert f.stats.get("allowed") == 1


class TestPCFilter:
    def test_keys_on_trigger_pc(self):
        f = PCFilter(entries=4096)
        f.on_feedback(line_addr=1, trigger_pc=0x400, referenced=False)
        f.on_feedback(line_addr=2, trigger_pc=0x400, referenced=False)
        # PC 0x400 latched bad for every address; other PCs fine.
        assert not f.should_prefetch(req(line=999, pc=0x400))
        assert f.should_prefetch(req(line=1, pc=0x500))

    def test_reset(self):
        f = PCFilter(entries=64)
        f.on_feedback(0, 0x400, False)
        f.on_feedback(0, 0x400, False)
        f.reset()
        assert f.should_prefetch(req(pc=0x400))


class TestAdaptiveFilter:
    def test_bypasses_while_accurate(self):
        f = AdaptiveFilter(entries=64, accuracy_floor=0.5, window=10)
        # Latch the table bad for this key, then feed good outcomes:
        for _ in range(10):
            f.on_feedback(5, 0x400, True)
        assert f.recent_accuracy == 1.0
        assert not f.filtering_active
        assert f.should_prefetch(req(line=5))  # bypassed despite any table state

    def test_engages_on_low_accuracy(self):
        f = AdaptiveFilter(entries=64, scheme="pa", accuracy_floor=0.5, window=8)
        for _ in range(8):
            f.on_feedback(5, 0x400, False)
        assert f.filtering_active
        assert not f.should_prefetch(req(line=5))  # table latched bad

    def test_needs_full_window(self):
        f = AdaptiveFilter(entries=64, window=100)
        for _ in range(5):
            f.on_feedback(5, 0, False)
        assert not f.filtering_active  # too early to judge

    def test_window_slides(self):
        f = AdaptiveFilter(entries=64, window=4)
        for _ in range(4):
            f.on_feedback(1, 0, False)
        for _ in range(4):
            f.on_feedback(2, 0, True)
        assert f.recent_accuracy == 1.0

    def test_pc_scheme(self):
        f = AdaptiveFilter(entries=64, scheme="pc", window=2)
        f.on_feedback(1, 0x400, False)
        f.on_feedback(2, 0x400, False)
        assert f.filtering_active
        assert not f.should_prefetch(req(line=77, pc=0x400))

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFilter(scheme="hybrid")
        with pytest.raises(ValueError):
            AdaptiveFilter(accuracy_floor=2.0)
        with pytest.raises(ValueError):
            AdaptiveFilter(window=0)

    def test_reset(self):
        f = AdaptiveFilter(entries=64, window=2)
        f.on_feedback(1, 0, False)
        f.on_feedback(1, 0, False)
        f.reset()
        assert not f.filtering_active
        assert f.recent_accuracy == 1.0

