"""Set-associative cache with the paper's PIB/RIB tag bits.

Beyond an ordinary cache, every line carries the two control bits the
pollution filter's feedback path needs (paper Section 4):

* **PIB** (Prefetch Indication Bit) — set when the line was brought in by a
  prefetch rather than a demand miss;
* **RIB** (Reference Indication Bit) — set when a prefetched line is later
  referenced by a demand access; only meaningful while PIB is set.

Each prefetched line additionally remembers *which prefetcher* filled it and
the *trigger PC*, so that at eviction time the (address, PC, RIB) triple can
be handed to the pollution filter and the good/bad classifier — exactly the
feedback loop of Figure 3.  A per-line ``nsp_tag`` bit is exposed for the
Next-Sequence Prefetcher (the tag bit of tagged sequential prefetching).

Implementation note: line metadata lives in plain Python lists (one
``_Line`` record per *resident* line, in way order), not numpy arrays — the
simulator makes hundreds of thousands of single-line probes per run, and
scalar indexing into numpy arrays is several times slower than attribute
access on small objects.  A set starts as one shared empty tuple, gets
its own list at its first fill and grows by one line per fill until it
holds ``ways`` lines, so a short run pays only for the sets and lines it
fills, not for every set and way of a 16K-line L2.  A demand access probes
its L1 set once: :meth:`Cache.consume_nsp_tag_and_access` reads and clears
the NSP tag on the same lookup that records the hit or miss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup


class FillSource(enum.IntEnum):
    """Who brought a line into the cache."""

    DEMAND = 0
    NSP = 1
    SDP = 2
    SOFTWARE = 3
    STRIDE = 4

    @property
    def is_prefetch(self) -> bool:
        return self is not FillSource.DEMAND


@dataclass(slots=True)
class EvictedLine:
    """Everything the filter/classifier needs to know about an eviction."""

    line_addr: int
    dirty: bool
    pib: bool
    rib: bool
    trigger_pc: int
    source: FillSource


#: Signature of the eviction observer wired in by the simulator.
EvictionCallback = Callable[[EvictedLine], None]


class _Line:
    """One resident line's state (mutable, slot-limited for speed)."""

    __slots__ = ("tag", "dirty", "pib", "rib", "nsp_tag", "source", "trigger_pc", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.dirty = False
        self.pib = False
        self.rib = False
        self.nsp_tag = False
        self.source = 0
        self.trigger_pc = 0
        self.stamp = 0

    def evict_record(self) -> EvictedLine:
        return EvictedLine(
            self.tag, self.dirty, self.pib, self.rib, self.trigger_pc, FillSource(self.source)
        )


class Cache:
    """One LRU cache level with prefetch bookkeeping bits."""

    def __init__(self, config: CacheConfig, name: str = "cache", stats: StatGroup | None = None) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else StatGroup(name)

        self._num_sets = config.num_sets
        self._ways = config.ways
        self._set_mask = self._num_sets - 1
        self._offset_bits = config.offset_bits
        self._occupancy = 0
        #: Per set, the resident lines in way order; a fill appends until
        #: the set holds ``ways`` lines, then replaces the LRU line in place.
        #: Every set starts as the one shared empty tuple and gets its own
        #: list at its first fill, so construction allocates nothing per set.
        self.sets: List[Sequence[_Line]] = [()] * self._num_sets
        self.on_evict: Optional[EvictionCallback] = None
        # Hot-path event counts are batched in plain integer attributes and
        # folded into the stats dict lazily (flush hook): the cache is
        # probed once or twice per memory instruction, and string-keyed
        # dict arithmetic per event dominates otherwise.
        self._n_read_hit = 0
        self._n_read_miss = 0
        self._n_write_hit = 0
        self._n_write_miss = 0
        self._n_first_use = 0
        self._n_duplicate_fill = 0
        self._n_evictions = 0
        self._n_evicted_used = 0
        self._n_evicted_unused = 0
        self._n_prefetch_fill = 0
        self._n_demand_fill = 0
        self.stats.bind_flush(self._flush_stats)

    def _flush_stats(self) -> None:
        c = self.stats.counters
        for key, attr in (
            ("demand_read_hit", "_n_read_hit"),
            ("demand_read_miss", "_n_read_miss"),
            ("demand_write_hit", "_n_write_hit"),
            ("demand_write_miss", "_n_write_miss"),
            ("prefetched_line_first_use", "_n_first_use"),
            ("duplicate_fill", "_n_duplicate_fill"),
            ("evictions", "_n_evictions"),
            ("evicted_prefetched_used", "_n_evicted_used"),
            ("evicted_prefetched_unused", "_n_evicted_unused"),
            ("prefetch_fill", "_n_prefetch_fill"),
            ("demand_fill", "_n_demand_fill"),
        ):
            pending = getattr(self, attr)
            if pending:
                c[key] = c.get(key, 0) + pending
                setattr(self, attr, 0)

    # ------------------------------------------------------------------
    # Address plumbing
    # ------------------------------------------------------------------
    def line_address(self, byte_address: int) -> int:
        return byte_address >> self._offset_bits

    def _find(self, line_addr: int) -> Optional[_Line]:
        for line in self.sets[line_addr & self._set_mask]:
            if line.tag == line_addr:
                return line
        return None

    # ------------------------------------------------------------------
    # Queries (no side effects)
    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        return self._find(line_addr) is not None

    def probe_bits(self, line_addr: int) -> tuple[bool, bool, bool] | None:
        """(pib, rib, nsp_tag) of a resident line, else None."""
        line = self._find(line_addr)
        if line is None:
            return None
        return line.pib, line.rib, line.nsp_tag

    @property
    def occupancy(self) -> int:
        return self._occupancy

    # ------------------------------------------------------------------
    # Invariant audit (sanitizer hook)
    # ------------------------------------------------------------------
    def _snapshot_line(self, set_index: int, way: int) -> dict:
        line = self.sets[set_index][way]
        return {
            "set": set_index,
            "way": way,
            "tag": line.tag,
            "pib": line.pib,
            "rib": line.rib,
            "source": line.source,
            "trigger_pc": line.trigger_pc,
        }

    def validate(self) -> None:
        """Audit every resident line against the paper's tag-bit invariants.

        Checked: no set holds more lines than it has ways, tag-to-set
        consistency, per-set tag uniqueness, PIB <=> prefetch fill source,
        RIB => PIB (a referenced bit is only meaningful on a prefetched
        line), and the batched occupancy counter against the per-line
        truth.  Raises
        :class:`~repro.sanitize.SanitizerViolation` on the first failure.
        """
        from repro.sanitize import SanitizerViolation

        resident = 0
        for set_index, entries in enumerate(self.sets):
            if len(entries) > self._ways:
                raise SanitizerViolation(
                    f"{self.name}.set{set_index}",
                    f"set {set_index} holds {len(entries)} lines in {self._ways} ways",
                    snapshot={"set": set_index, "tags": [line.tag for line in entries]},
                )
            seen_tags = set()
            for way, line in enumerate(entries):
                resident += 1
                site = f"{self.name}.set{set_index}.way{way}"
                snap = lambda: self._snapshot_line(set_index, way)
                if line.tag < 0 or (line.tag & self._set_mask) != set_index:
                    raise SanitizerViolation(
                        site,
                        f"tag {line.tag:#x} does not map to set {set_index} "
                        f"(mask {self._set_mask:#x}): frame/tag desync",
                        snapshot=snap(),
                    )
                if line.tag in seen_tags:
                    raise SanitizerViolation(
                        site,
                        f"duplicate tag {line.tag:#x} in set {set_index}: "
                        "the same line is resident in two ways",
                        snapshot=snap(),
                    )
                seen_tags.add(line.tag)
                try:
                    is_prefetch = FillSource(line.source).is_prefetch
                except ValueError:
                    raise SanitizerViolation(
                        site,
                        f"fill source {line.source} is not a known FillSource",
                        snapshot=snap(),
                    ) from None
                if line.pib != is_prefetch:
                    raise SanitizerViolation(
                        site,
                        f"PIB={line.pib} disagrees with fill source "
                        f"{FillSource(line.source).name}: prefetch lineage lost",
                        snapshot=snap(),
                    )
                if line.rib and not line.pib:
                    raise SanitizerViolation(
                        site,
                        "RIB set on a line without PIB: referenced bit "
                        "without prefetch lineage",
                        snapshot=snap(),
                    )
        if resident != self._occupancy:
            raise SanitizerViolation(
                f"{self.name}.occupancy",
                f"occupancy counter {self._occupancy} != {resident} resident "
                "lines: batched counter desynced from per-line truth",
                snapshot={"occupancy": self._occupancy, "resident": resident},
            )

    # ------------------------------------------------------------------
    # Demand access
    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool, now: int) -> tuple[bool, bool]:
        """Demand reference; returns ``(hit, first_use_of_prefetched_line)``.

        On a hit to a prefetched line the RIB is set (the prefetch proved
        useful) — this is the paper's feedback-collection mechanism.  The
        second flag is True only on the *first* such reference, which is the
        SDP confirmation-bit signal.
        """
        line = self._find(line_addr)
        if line is None:
            if is_write:
                self._n_write_miss += 1
            else:
                self._n_read_miss += 1
            return False, False
        if is_write:
            self._n_write_hit += 1
        else:
            self._n_read_hit += 1
        first_use = line.pib and not line.rib
        if first_use:
            line.rib = True
            self._n_first_use += 1
        if is_write:
            line.dirty = True
        line.stamp = now
        return True, first_use

    def consume_nsp_tag_and_access(
        self, line_addr: int, is_write: bool, now: int
    ) -> tuple[bool, bool, bool]:
        """:meth:`consume_nsp_tag` then :meth:`access`, on one set lookup.

        Returns ``(hit, first_use_of_prefetched_line, nsp_tag_was_set)``.
        Counters and line bits change exactly as the two calls, in that
        order, would change them; the demand path probes the set once
        instead of twice.
        """
        for line in self.sets[line_addr & self._set_mask]:
            if line.tag == line_addr:
                break
        else:
            if is_write:
                self._n_write_miss += 1
            else:
                self._n_read_miss += 1
            return False, False, False
        nsp_tag = line.nsp_tag
        if nsp_tag:
            line.nsp_tag = False
        if is_write:
            self._n_write_hit += 1
            line.dirty = True
        else:
            self._n_read_hit += 1
        first_use = line.pib and not line.rib
        if first_use:
            line.rib = True
            self._n_first_use += 1
        line.stamp = now
        return True, first_use, nsp_tag

    def consume_nsp_tag(self, line_addr: int) -> bool:
        """Read-and-clear the NSP tag bit of a resident line.

        Returns True when the bit was set (the NSP trigger condition on a
        hit); clearing implements one-shot tagged sequential prefetching.
        """
        line = self._find(line_addr)
        if line is None or not line.nsp_tag:
            return False
        line.nsp_tag = False
        return True

    # ------------------------------------------------------------------
    # Fills and evictions
    # ------------------------------------------------------------------
    def fill(
        self,
        line_addr: int,
        now: int,
        source: FillSource = FillSource.DEMAND,
        trigger_pc: int = 0,
        nsp_tag: bool = False,
        dirty: bool = False,
    ) -> Optional[EvictedLine]:
        """Bring a line in, evicting a victim if the set is full.

        Returns the eviction record (also delivered to ``on_evict``), or
        None when the set had a free way.  Filling a line that is already
        resident refreshes its metadata instead of duplicating it.
        """
        set_index = line_addr & self._set_mask
        entries = self.sets[set_index]
        for line in entries:
            if line.tag == line_addr:
                # Duplicate fill: refresh recency, never downgrade demand->prefetch.
                line.stamp = now
                if dirty:
                    line.dirty = True
                self._n_duplicate_fill += 1
                return None

        evicted: Optional[EvictedLine] = None
        if len(entries) < self._ways:
            slot = _Line()
            if entries:
                entries.append(slot)
            else:  # first line of the set (or of a flushed set): its own list
                self.sets[set_index] = [slot]
        else:
            # LRU: every hit and fill stamps its line with the access time,
            # so the way with the smallest stamp is the least recently used.
            slot = entries[0]
            for line in entries[1:]:
                if line.stamp < slot.stamp:
                    slot = line
            evicted = slot.evict_record()
            self._occupancy -= 1
            self._n_evictions += 1
            if evicted.pib:
                if evicted.rib:
                    self._n_evicted_used += 1
                else:
                    self._n_evicted_unused += 1
            if self.on_evict is not None:
                self.on_evict(evicted)

        slot.tag = line_addr
        slot.dirty = dirty
        slot.pib = source.is_prefetch
        slot.rib = False
        slot.nsp_tag = nsp_tag
        slot.source = int(source)
        slot.trigger_pc = trigger_pc
        slot.stamp = now
        self._occupancy += 1
        if source.is_prefetch:
            self._n_prefetch_fill += 1
        else:
            self._n_demand_fill += 1
        return evicted

    def flush(self) -> Iterator[EvictedLine]:
        """Drain every resident line in (set, way) order, yielding eviction records.

        Used at end of simulation so prefetched-but-still-resident lines get
        classified exactly once (callback also fires, matching real evicts).
        Each line leaves its set before its record is yielded, so every set
        is empty once the iterator is exhausted.
        """
        for entries in self.sets:
            while entries:
                record = entries.pop(0).evict_record()
                self._occupancy -= 1
                if self.on_evict is not None:
                    self.on_evict(record)
                yield record
