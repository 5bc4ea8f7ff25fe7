"""Good/bad prefetch classification (paper Section 3).

    "1) good or effective — those referenced in the cache before they are
     evicted; 2) bad or ineffective — those never referenced during their
     lifetime in the cache."

The classifier is the accounting hub every figure draws from.  It observes
four events per prefetch lifecycle:

* **squashed** — duplicate of a resident/in-flight line, dropped free,
* **filtered** — rejected by the pollution filter,
* **dropped**  — prefetch queue overflow or end-of-run drain,
* **issued**   — actually performed against the L1/buffer; later resolved
  to exactly one of **good** or **bad** by the eviction (or final-flush)
  PIB/RIB feedback.

Everything is kept per prefetch source so NSP/SDP/software can be reported
separately (Section 5.2.1's per-prefetcher analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.common.stats import StatGroup
from repro.mem.cache import EvictedLine, FillSource
from repro.mem.prefetch_buffer import BufferedLine
from repro.prefetch.base import PrefetchRequest

_PREFETCH_SOURCES = (FillSource.NSP, FillSource.SDP, FillSource.SOFTWARE, FillSource.STRIDE)


@dataclass(slots=True)
class PrefetchTally:
    """Counts for one prefetch source."""

    generated: int = 0
    squashed: int = 0
    filtered: int = 0
    dropped: int = 0
    issued: int = 0
    good: int = 0
    bad: int = 0

    @property
    def classified(self) -> int:
        return self.good + self.bad

    @property
    def bad_good_ratio(self) -> float:
        """The paper's bad/good metric (inf when nothing was good)."""
        if self.good == 0:
            return float("inf") if self.bad else 0.0
        return self.bad / self.good

    @property
    def accuracy(self) -> float:
        done = self.classified
        return self.good / done if done else 0.0

    def merged_with(self, other: "PrefetchTally") -> "PrefetchTally":
        return PrefetchTally(
            self.generated + other.generated,
            self.squashed + other.squashed,
            self.filtered + other.filtered,
            self.dropped + other.dropped,
            self.issued + other.issued,
            self.good + other.good,
            self.bad + other.bad,
        )

    def minus(self, earlier: "PrefetchTally") -> "PrefetchTally":
        """Counts accumulated since an earlier snapshot (warmup exclusion)."""
        return PrefetchTally(
            self.generated - earlier.generated,
            self.squashed - earlier.squashed,
            self.filtered - earlier.filtered,
            self.dropped - earlier.dropped,
            self.issued - earlier.issued,
            self.good - earlier.good,
            self.bad - earlier.bad,
        )

    def copy(self) -> "PrefetchTally":
        return PrefetchTally(
            self.generated, self.squashed, self.filtered, self.dropped,
            self.issued, self.good, self.bad,
        )


class PrefetchClassifier:
    """Per-source lifecycle accounting for every prefetch."""

    def __init__(self, stats: StatGroup | None = None) -> None:
        self.stats = stats if stats is not None else StatGroup("classifier")
        self.per_source: Dict[FillSource, PrefetchTally] = {
            src: PrefetchTally() for src in _PREFETCH_SOURCES
        }
        #: stats-dict values already flushed, per counter key; the flush
        #: hook derives pending deltas from the per-source tallies (the
        #: single source of truth) instead of double-counting per event.
        self._flushed: Dict[str, int] = {}
        self.stats.bind_flush(self._flush_stats)

    def _flush_stats(self) -> None:
        c = self.stats.counters
        flushed = self._flushed
        totals = {"generated": 0, "squashed": 0, "filtered": 0,
                  "dropped": 0, "issued": 0, "good": 0, "bad": 0}
        for tally in self.per_source.values():
            totals["generated"] += tally.generated
            totals["squashed"] += tally.squashed
            totals["filtered"] += tally.filtered
            totals["dropped"] += tally.dropped
            totals["issued"] += tally.issued
            totals["good"] += tally.good
            totals["bad"] += tally.bad
        for key, value in totals.items():
            delta = value - flushed.get(key, 0)
            if delta:
                c[key] = c.get(key, 0) + delta
                flushed[key] = value

    # -- lifecycle events ----------------------------------------------------
    def on_generated(self, request: PrefetchRequest) -> None:
        self.per_source[request.source].generated += 1

    def on_squashed(self, request: PrefetchRequest) -> None:
        self.per_source[request.source].squashed += 1

    def on_filtered(self, request: PrefetchRequest) -> None:
        self.per_source[request.source].filtered += 1

    def on_dropped(self, request: PrefetchRequest) -> None:
        self.per_source[request.source].dropped += 1

    def on_issued(self, request: PrefetchRequest) -> None:
        self.per_source[request.source].issued += 1

    # -- resolution ------------------------------------------------------------
    def on_l1_eviction(self, evicted: EvictedLine) -> None:
        """Classify a prefetched line leaving the L1 (or the final flush)."""
        if not evicted.pib:
            return
        tally = self.per_source[evicted.source]
        if evicted.rib:
            tally.good += 1
        else:
            tally.bad += 1

    def on_buffer_eviction(self, line: BufferedLine) -> None:
        """Classify a line pushed out of (or drained from) the prefetch buffer."""
        tally = self.per_source[line.source]
        if line.referenced:
            tally.good += 1
        else:
            tally.bad += 1

    # -- aggregates ----------------------------------------------------------
    def total(self) -> PrefetchTally:
        out = PrefetchTally()
        for tally in self.per_source.values():
            out = out.merged_with(tally)
        return out

    def snapshot(self) -> Dict[FillSource, PrefetchTally]:
        return {src: tally.copy() for src, tally in self.per_source.items()}

    def tally(self, source: FillSource) -> PrefetchTally:
        return self.per_source[source]

    def check_conservation(self) -> None:
        check_conservation(self.per_source)


def check_conservation(per_source: Mapping[FillSource, PrefetchTally]) -> None:
    """Invariant: after the final flush, issued == good + bad per source,
    and every generated prefetch ended squashed, filtered, dropped or issued."""
    for source, tally in per_source.items():
        if tally.issued != tally.classified:
            raise AssertionError(
                f"{source.name}: issued={tally.issued} != classified={tally.classified}"
            )
        if tally.generated != tally.squashed + tally.filtered + tally.dropped + tally.issued:
            raise AssertionError(f"{source.name}: lifecycle counts do not add up")
