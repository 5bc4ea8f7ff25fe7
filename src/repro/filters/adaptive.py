"""Accuracy-adaptive filter — the paper's "advanced features" sketch.

Section 5.2.1 closes with: "our pollution filter can be made adaptive to
start filtering when the prefetching becomes too aggressive (with low
accuracy)."  This module implements that idea: a sliding window over recent
prefetch outcomes estimates the prefetcher's current accuracy; while the
accuracy stays above a floor the filter passes everything (an accurate
prefetcher, like SDP, loses more than it gains from filtering — the SDP
numbers in §5.2.1 motivate exactly this), and only when accuracy drops
below the floor does the inner PA/PC history table take over.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.common.stats import StatGroup
from repro.filters.base import PollutionFilter
from repro.filters.history_table import HistoryTable
from repro.prefetch.base import PrefetchRequest


class AdaptiveFilter(PollutionFilter):
    name = "adaptive"

    def __init__(
        self,
        entries: int = 4096,
        counter_bits: int = 2,
        initial_value: int = 2,
        threshold: int = 2,
        scheme: str = "pa",
        accuracy_floor: float = 0.5,
        window: int = 512,
        hash_scheme: str = "fold_xor",
        stats: StatGroup | None = None,
    ) -> None:
        super().__init__(stats)
        if scheme not in ("pa", "pc"):
            raise ValueError("inner scheme must be 'pa' or 'pc'")
        if not 0.0 <= accuracy_floor <= 1.0:
            raise ValueError("accuracy floor must be a fraction")
        if window < 1:
            raise ValueError("window must be positive")
        self.scheme = scheme
        self.accuracy_floor = accuracy_floor
        self.window = window
        self.table = HistoryTable(
            entries, counter_bits, initial_value, threshold, hash_scheme, self.stats["table"]
        )
        self._recent: Deque[bool] = deque(maxlen=window)
        self._good_in_window = 0

    # ------------------------------------------------------------------
    @property
    def recent_accuracy(self) -> float:
        """Good fraction over the feedback window (1.0 before any feedback)."""
        n = len(self._recent)
        return self._good_in_window / n if n else 1.0

    @property
    def filtering_active(self) -> bool:
        # Demand a full window before judging: a few early bad prefetches
        # must not flip a fundamentally accurate prefetcher into filtering.
        return len(self._recent) >= self.window and self.recent_accuracy < self.accuracy_floor

    def _key(self, request: PrefetchRequest) -> int:
        return request.line_addr if self.scheme == "pa" else request.trigger_pc

    # ------------------------------------------------------------------
    def should_prefetch(self, request: PrefetchRequest) -> bool:
        if not self.filtering_active:
            self.stats.bump("bypass")
            return self._count_decision(True)
        return self._count_decision(self.table.predict_good(self._key(request)))

    def on_feedback(self, line_addr: int, trigger_pc: int, referenced: bool) -> None:
        self._count_feedback(referenced)
        if len(self._recent) == self._recent.maxlen and self._recent[0]:
            self._good_in_window -= 1
        self._recent.append(referenced)
        if referenced:
            self._good_in_window += 1
        key = line_addr if self.scheme == "pa" else trigger_pc
        self.table.train(key, referenced)

    def reset(self) -> None:
        self.table.reset()
        self._recent.clear()
        self._good_in_window = 0
