"""Pollution-filter protocol.

The filter sits between prefetch generation and the prefetch queue
(Figure 3).  Its two entry points correspond to the two data paths in the
figure: the lookup path (incoming prefetches checked against the history
table) and the update path (evicted-line PIB/RIB feedback).
"""

from __future__ import annotations

import abc

from repro.common.stats import StatGroup
from repro.prefetch.base import PrefetchRequest


class PollutionFilter(abc.ABC):
    """Decides, per in-flight prefetch, whether it may enter the cache."""

    name = "abstract"

    def __init__(self, stats: StatGroup | None = None) -> None:
        self.stats = stats if stats is not None else StatGroup(self.name)
        self._n_allowed = 0
        self._n_rejected = 0
        self._n_fb_good = 0
        self._n_fb_bad = 0
        self.stats.bind_flush(self._flush_stats)

    def _flush_stats(self) -> None:
        c = self.stats.counters
        for key, attr in (
            ("allowed", "_n_allowed"),
            ("rejected", "_n_rejected"),
            ("feedback_good", "_n_fb_good"),
            ("feedback_bad", "_n_fb_bad"),
        ):
            pending = getattr(self, attr)
            if pending:
                c[key] = c.get(key, 0) + pending
                setattr(self, attr, 0)

    @abc.abstractmethod
    def should_prefetch(self, request: PrefetchRequest) -> bool:
        """Lookup path: True lets the prefetch proceed to the queue."""

    @abc.abstractmethod
    def on_feedback(self, line_addr: int, trigger_pc: int, referenced: bool) -> None:
        """Update path: a prefetched line left the cache.

        ``referenced`` is the line's RIB — True means the prefetch was good.
        """

    def reset(self) -> None:
        """Forget learned state."""

    # -- shared accounting -------------------------------------------------
    def _count_decision(self, allowed: bool) -> bool:
        if allowed:
            self._n_allowed += 1
        else:
            self._n_rejected += 1
        return allowed

    def _count_feedback(self, referenced: bool) -> None:
        if referenced:
            self._n_fb_good += 1
        else:
            self._n_fb_bad += 1
