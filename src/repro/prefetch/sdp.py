"""Shadow Directory Prefetching (SDP).

From the paper (Section 3):

    "the SDP maintains a shadow line address in each L2 cache line for
    prefetching purposes along with its resident address.  The shadow line
    is the next line missed after the currently resident line was last
    accessed.  A confirmation bit is added to each L2 cache line indicating
    if the prefetched line was ever used since it was prefetched last time."

Implementation: a directory keyed by resident L2 line address holding
``(shadow, confirmation)``.  :meth:`observe` acts on every reference that
reaches the L2, i.e. on every L1 miss, whether it then hits the L2 or not.
For such a reference to line X it issues a prefetch for ``shadow[X]`` if
X's confirmation bit is set, and clears the bit; with the bit clear it
suppresses the prefetch.  :meth:`confirm_use`, wired by the simulator to
demand references of prefetched lines, sets the bit again.  Learning runs
on the same references: when a reference to M reaches the L2 after one to
X, and X's shadow is not already M, a fresh entry ``shadow[X] = M`` is
written with its confirmation bit set.  So a re-learn re-arms the bit
whatever became of the last prefetch.  Directory entries die with their
L2 line (``on_l2_eviction``).

The paper credits the confirmation bit for SDP's far better good/bad ratio
(11.7 against NSP's 1.8).  This model does not show that gap.  With each
prefetcher alone (no software prefetch, no filter, 150k instructions, 60k
warm-up, seed 0, kernel tier), the good/bad ratio pooled over the ten
benchmarks is 0.32 for SDP and 0.33 for NSP.  Learning happens at least as
often as issuing, so the bit rarely throttles: on em3d SDP issued 16,595
shadow prefetches and suppressed 21.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.stats import StatGroup
from repro.mem.cache import FillSource
from repro.mem.hierarchy import AccessResult
from repro.prefetch.base import HardwarePrefetcher, PrefetchRequest


@dataclass(slots=True)
class _ShadowEntry:
    shadow: int
    confirmed: bool = True  # optimistic: a fresh shadow gets one chance


class ShadowDirectoryPrefetcher(HardwarePrefetcher):
    source = FillSource.SDP

    def __init__(self, stats: StatGroup | None = None) -> None:
        self.stats = stats if stats is not None else StatGroup("sdp")
        self._directory: Dict[int, _ShadowEntry] = {}
        #: line whose shadow should be updated by the next L2 miss
        self._last_l2_line: Optional[int] = None
        #: prefetched line -> parent line whose confirmation it proves
        self._awaiting_confirm: Dict[int, int] = {}
        self._n_issued = 0
        self._n_suppressed = 0
        self._n_learned = 0
        self._n_confirmed = 0
        self.stats.bind_flush(self._flush_stats)

    def _flush_stats(self) -> None:
        c = self.stats.counters
        for key, attr in (
            ("shadow_issued", "_n_issued"),
            ("shadow_suppressed", "_n_suppressed"),
            ("shadow_learned", "_n_learned"),
            ("confirmed", "_n_confirmed"),
        ):
            pending = getattr(self, attr)
            if pending:
                c[key] = c.get(key, 0) + pending
                setattr(self, attr, 0)

    # ------------------------------------------------------------------
    def observe(self, pc: int, result: AccessResult) -> List[PrefetchRequest]:
        # SDP is triggered by L2 accesses, i.e. demand references that
        # missed the L1 (result.l2_hit is None on an L1 hit).
        if result.l2_hit is None:
            return []
        line = result.line_addr
        requests: List[PrefetchRequest] = []

        entry = self._directory.get(line)
        if entry is not None and entry.shadow != line:
            if entry.confirmed:
                # Re-arm: the prefetch must be used again to stay confirmed.
                entry.confirmed = False
                self._awaiting_confirm[entry.shadow] = line
                self._n_issued += 1
                requests.append(PrefetchRequest(entry.shadow, pc, FillSource.SDP))
            else:
                self._n_suppressed += 1

        # Learn: every reference reaching the L2 is a miss from the L1's
        # point of view, so this line is the "next line missed" after the
        # previously referenced L2 line — record it as that line's shadow.
        prev = self._last_l2_line
        if prev is not None and prev != line:
            old = self._directory.get(prev)
            if old is None or old.shadow != line:
                self._directory[prev] = _ShadowEntry(shadow=line, confirmed=True)
                self._n_learned += 1
        self._last_l2_line = line
        return requests

    # ------------------------------------------------------------------
    def confirm_use(self, line_addr: int) -> None:
        """A prefetched line was demand-referenced: set its parent's bit."""
        parent = self._awaiting_confirm.pop(line_addr, None)
        if parent is None:
            return
        entry = self._directory.get(parent)
        if entry is not None and entry.shadow == line_addr:
            entry.confirmed = True
            self._n_confirmed += 1

    def on_l2_eviction(self, line_addr: int) -> None:
        self._directory.pop(line_addr, None)

    def reset(self) -> None:
        self._directory.clear()
        self._awaiting_confirm.clear()
        self._last_l2_line = None

    @property
    def directory_size(self) -> int:
        return len(self._directory)
