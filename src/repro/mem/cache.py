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
``_Line`` record per way), not numpy arrays — the simulator makes hundreds
of thousands of single-line probes per run, and scalar indexing into numpy
arrays is several times slower than attribute access on small objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Optional

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup
from repro.mem.replacement import ReplacementPolicy, make_policy


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


@dataclass(frozen=True, slots=True)
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
    """One cache way's state (mutable, slot-limited for speed)."""

    __slots__ = ("tag", "valid", "dirty", "pib", "rib", "nsp_tag", "source", "trigger_pc", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.pib = False
        self.rib = False
        self.nsp_tag = False
        self.source = 0
        self.trigger_pc = 0
        self.stamp = 0

    def evict_record(self) -> EvictedLine:
        return EvictedLine(
            line_addr=self.tag,
            dirty=self.dirty,
            pib=self.pib,
            rib=self.rib,
            trigger_pc=self.trigger_pc,
            source=FillSource(self.source),
        )


class Cache:
    """One cache level with prefetch bookkeeping bits."""

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        policy: ReplacementPolicy | str | None = None,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.name = name
        if policy is None:
            policy = make_policy("lru")
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        self.stats = stats if stats is not None else StatGroup(name)

        self._num_sets = config.num_sets
        self._ways = config.ways
        self._set_mask = self._num_sets - 1
        self._offset_bits = config.offset_bits
        self._occupancy = 0
        self.on_evict: Optional[EvictionCallback] = None
        # Policy fast paths, resolved once.
        from repro.mem.replacement import FIFOPolicy, LRUPolicy

        self._refresh_on_access = isinstance(policy, LRUPolicy)
        self._min_stamp_victim = isinstance(policy, (LRUPolicy, FIFOPolicy))
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

    @cached_property
    def sets(self) -> List[List[_Line]]:
        """The object-model line array, built on first touch.

        The kernel engine keeps its own flat-array cache state and never
        probes these lines, so a large L2's ~10^5 ``_Line`` objects would
        be pure construction waste there.  After the first access this is
        a plain instance attribute (that is how ``cached_property`` stores
        its result), so the pipeline's per-access cost is unchanged."""
        return [[_Line() for _ in range(self._ways)] for _ in range(self._num_sets)]

    # ------------------------------------------------------------------
    # Address plumbing
    # ------------------------------------------------------------------
    def line_address(self, byte_address: int) -> int:
        return byte_address >> self._offset_bits

    def _find(self, line_addr: int) -> Optional[_Line]:
        for line in self.sets[line_addr & self._set_mask]:
            if line.valid and line.tag == line_addr:
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
            "valid": line.valid,
            "pib": line.pib,
            "rib": line.rib,
            "source": line.source,
            "trigger_pc": line.trigger_pc,
        }

    def validate(self) -> None:
        """Audit every resident line against the paper's tag-bit invariants.

        Checked: tag-to-set consistency, per-set tag uniqueness, PIB <=>
        prefetch fill source, RIB => PIB (a referenced bit is only
        meaningful on a prefetched line), and the batched occupancy
        counter against the per-line truth.  Raises
        :class:`~repro.sanitize.SanitizerViolation` on the first failure.
        """
        from repro.sanitize import SanitizerViolation

        resident = 0
        for set_index, entries in enumerate(self.sets):
            seen_tags = set()
            for way, line in enumerate(entries):
                if not line.valid:
                    continue
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
        if self._refresh_on_access:
            line.stamp = now  # LRU recency; FIFO/random keep insertion order
        return True, first_use

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
        None when an invalid way absorbed the fill.  Filling a line that is
        already resident refreshes its metadata instead of duplicating it.
        """
        entries = self.sets[line_addr & self._set_mask]
        victim_slot: Optional[_Line] = None
        for line in entries:
            if line.valid and line.tag == line_addr:
                # Duplicate fill: refresh recency, never downgrade demand->prefetch.
                line.stamp = now
                if dirty:
                    line.dirty = True
                self._n_duplicate_fill += 1
                return None
            if victim_slot is None and not line.valid:
                victim_slot = line

        evicted: Optional[EvictedLine] = None
        if victim_slot is None:
            if self._min_stamp_victim:
                # LRU and FIFO both evict the minimum stamp (access refresh
                # is the only difference, handled in access()).
                best = entries[0]
                for line in entries[1:]:
                    if line.stamp < best.stamp:
                        best = line
                victim_slot = best
            else:
                import numpy as np

                stamps = np.array([ln.stamp for ln in entries])
                valid = np.array([ln.valid for ln in entries])
                victim_slot = entries[self.policy.victim(valid, stamps)]
            evicted = victim_slot.evict_record()
            self._occupancy -= 1
            self._n_evictions += 1
            if evicted.pib:
                if evicted.rib:
                    self._n_evicted_used += 1
                else:
                    self._n_evicted_unused += 1
            if self.on_evict is not None:
                self.on_evict(evicted)

        victim_slot.tag = line_addr
        victim_slot.valid = True
        victim_slot.dirty = dirty
        victim_slot.pib = source.is_prefetch
        victim_slot.rib = False
        victim_slot.nsp_tag = nsp_tag
        victim_slot.source = int(source)
        victim_slot.trigger_pc = trigger_pc
        victim_slot.stamp = now
        self._occupancy += 1
        if source.is_prefetch:
            self._n_prefetch_fill += 1
        else:
            self._n_demand_fill += 1
        return evicted

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Remove a line (no eviction callback; used for moves, not pressure)."""
        line = self._find(line_addr)
        if line is None:
            return None
        record = line.evict_record()
        line.valid = False
        line.tag = -1
        self._occupancy -= 1
        return record

    def flush(self) -> Iterator[EvictedLine]:
        """Drain every resident line, yielding eviction records.

        Used at end of simulation so prefetched-but-still-resident lines get
        classified exactly once (callback also fires, matching real evicts).
        """
        for entries in self.sets:
            for line in entries:
                if not line.valid:
                    continue
                record = line.evict_record()
                line.valid = False
                line.tag = -1
                self._occupancy -= 1
                if self.on_evict is not None:
                    self.on_evict(record)
                yield record
