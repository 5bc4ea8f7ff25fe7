"""Prefetcher interface and the request record.

A prefetcher observes demand-access outcomes (delivered by the simulator
after each load/store resolves) and returns zero or more
:class:`PrefetchRequest` objects.  Each request carries:

* the **line address** to fetch — what the PA-based filter indexes on,
* the **trigger PC** — the memory instruction (or software-prefetch
  instruction) that caused it, what the PC-based filter indexes on,
* the **source** — which prefetcher generated it, for per-source accounting
  (Section 5.2.1 evaluates NSP and SDP separately).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from repro.mem.cache import FillSource
from repro.mem.hierarchy import AccessResult


@dataclass(slots=True)
class PrefetchRequest:
    """One candidate prefetch heading for the pollution filter."""

    line_addr: int
    trigger_pc: int
    source: FillSource

    def __post_init__(self) -> None:
        if not self.source.is_prefetch:
            raise ValueError("a prefetch request cannot have a DEMAND source")
        if self.line_addr < 0:
            raise ValueError("line address must be non-negative")


class HardwarePrefetcher(abc.ABC):
    """Observes demand traffic, emits prefetch candidates."""

    #: FillSource tag stamped on lines this prefetcher brings in.
    source: FillSource

    @abc.abstractmethod
    def observe(self, pc: int, result: AccessResult) -> List[PrefetchRequest]:
        """React to one resolved demand access.

        ``result`` describes where the access hit (L1/L2/memory) plus the
        NSP tag-bit outcome; ``pc`` is the demand instruction's PC, which
        hardware prefetchers use as the trigger PC for PC-based filtering.
        """

    def on_l2_eviction(self, line_addr: int) -> None:
        """Hook for prefetchers holding per-L2-line state (SDP)."""

    def reset(self) -> None:
        """Forget all learned state (fresh run)."""
