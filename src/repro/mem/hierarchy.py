"""L1 + L2 + memory composition — the data-side machine the core talks to.

State changes (fills, evictions) are applied eagerly while *timing* is
carried by timestamps: every access returns the cycle at which its data is
available, computed from cache latencies, MSHR merging, and memory-bus
occupancy.  Demand accesses and prefetches share the L1 ports through the
:class:`~repro.mem.ports.PortArbiter` (demand has priority) and share the
memory bus (prefetch traffic delays demand fills), which are the two
contention effects the paper's evaluation turns on.

Prefetches normally fill straight into the L1 (the paper's default design,
Figure 3); with :class:`~repro.mem.prefetch_buffer.PrefetchBuffer` enabled
they land in the buffer instead and are promoted to the L1 on first use
(the Section 5.5 alternative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.config import HierarchyConfig, PrefetchBufferConfig
from repro.common.stats import StatGroup
from repro.mem.bus import Bus, TransferKind
from repro.mem.cache import Cache, EvictedLine, FillSource
from repro.mem.mshr import MSHRFile
from repro.mem.ports import PortArbiter
from repro.mem.prefetch_buffer import BufferedLine, PrefetchBuffer


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one demand access, consumed by the timing engine."""

    line_addr: int
    grant: int
    complete: int
    l1_hit: bool
    l2_hit: Optional[bool]
    merged: bool
    nsp_tag_hit: bool
    buffer_hit: bool
    first_use_prefetched: bool = False
    #: the miss hit a full MSHR file; the core must apply backpressure
    mshr_stalled: bool = False

    @property
    def latency(self) -> int:
        return self.complete - self.grant


@dataclass(frozen=True, slots=True)
class PrefetchOutcome:
    """Outcome of one prefetch issued to the hierarchy."""

    line_addr: int
    complete: int
    l2_hit: bool


#: Observer for prefetch-buffer evictions (classification feedback path).
BufferEvictCallback = Callable[[BufferedLine], None]


class MemoryHierarchy:
    def __init__(
        self,
        config: HierarchyConfig,
        stats: StatGroup | None = None,
        buffer_config: PrefetchBufferConfig | None = None,
    ) -> None:
        self.config = config
        root = stats if stats is not None else StatGroup("mem")
        self.stats = root
        self.l1 = Cache(config.l1, "l1", stats=root["l1"])
        self.l2 = Cache(config.l2, "l2", stats=root["l2"])
        self.mshr = MSHRFile(config.mshr_entries, stats=root["mshr"])
        self.ports = PortArbiter(config.l1.ports, stats=root["ports"])
        # L1-side bus: accounting only (port arbitration models the contention).
        self.l1_bus = Bus(config.l1.line_bytes, config.l1.line_bytes, stats=root["l1_bus"], model_occupancy=False)
        # Memory-side bus: 64 bytes/cycle, occupancy modelled (Table 1).
        self.mem_bus = Bus(config.l2.line_bytes, config.bus_bytes, stats=root["mem_bus"], model_occupancy=True)
        self.buffer: Optional[PrefetchBuffer] = None
        if buffer_config is not None and buffer_config.enabled:
            self.buffer = PrefetchBuffer(buffer_config.entries, stats=root["prefetch_buffer"])
        self.on_buffer_evict: Optional[BufferEvictCallback] = None
        self._l1_writeback_sink = self._handle_l1_eviction_writeback
        # Hot-path constants, hoisted out of demand_access.
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._memory_latency = config.memory_latency
        self._l1_writeback = config.l1.writeback
        self._l1_write_allocate = config.l1.write_allocate

    # ------------------------------------------------------------------
    # Internal fill plumbing
    # ------------------------------------------------------------------
    def _handle_l1_eviction_writeback(self, evicted: EvictedLine, when: int) -> None:
        """Dirty L1 victims write back into the L2 (write-back, write-allocate)."""
        if not evicted.dirty:
            return
        self.l1_bus.transfer(TransferKind.WRITEBACK, when)
        victim = self.l2.fill(evicted.line_addr, when, FillSource.DEMAND, dirty=True)
        if victim is not None and victim.dirty:
            self.mem_bus.transfer(TransferKind.WRITEBACK, when)

    def _fetch_into_l2(self, line_addr: int, when: int, kind: TransferKind) -> tuple[int, bool]:
        """L2 lookup + memory fetch on miss; returns (data-ready time, l2 hit)."""
        l2_latency = self._l2_latency
        hit, _ = self.l2.access(line_addr, False, when)
        if hit:
            return when + l2_latency, True
        done = self.mem_bus.transfer(kind, when + l2_latency)
        ready = done + self._memory_latency
        victim = self.l2.fill(line_addr, when, FillSource.DEMAND)
        if victim is not None and victim.dirty:
            self.mem_bus.transfer(TransferKind.WRITEBACK, when)
        return ready, False

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_access(self, byte_addr: int, is_write: bool, when: int) -> AccessResult:
        """One load/store: port arbitration, L1, buffer probe, L2, memory."""
        l1 = self.l1
        line = l1.line_address(byte_addr)
        grant = self.ports.acquire_demand(when)
        pending = self.mshr.pending_ready(line, grant)
        nsp_tag_hit = l1.consume_nsp_tag(line)
        hit, first_use = l1.access(line, is_write, grant)
        l1_lat = self._l1_latency

        if hit:
            # A pending MSHR entry means the line's fill is still in flight
            # (e.g. a late prefetch): pay the remaining latency (merge).
            complete = grant + l1_lat + (pending - grant if pending else 0)
            return AccessResult(
                line, grant, complete, True, None, pending is not None, nsp_tag_hit, False, first_use
            )

        if self.buffer is not None:
            promoted = self.buffer.demand_probe(line)
            if promoted is not None:
                evicted = l1.fill(line, grant, promoted.source, promoted.trigger_pc)
                if evicted is not None:
                    self._l1_writeback_sink(evicted, grant)
                l1.access(line, is_write, grant)  # sets RIB, recency
                self.stats.bump("buffer_promotions")
                complete = grant + l1_lat + (pending - grant if pending else 0)
                return AccessResult(line, grant, complete, False, None, False, nsp_tag_hit, True, True)

        l2_data_at, l2_hit = self._fetch_into_l2(line, grant + l1_lat, TransferKind.DEMAND_FILL)
        self.l1_bus.transfer(TransferKind.DEMAND_FILL, grant)
        ready, stalled = self.mshr.allocate(line, l2_data_at, grant)
        if is_write and not self._l1_write_allocate:
            # No-write-allocate (write-around): the store updates the line
            # in the L2 and the L1 is left untouched; only reads allocate.
            self.l2.access(line, True, grant)
        else:
            evicted = l1.fill(line, grant, FillSource.DEMAND, dirty=is_write and self._l1_writeback)
            if evicted is not None:
                self._l1_writeback_sink(evicted, grant)
        return AccessResult(
            line, grant, ready, False, l2_hit, False, nsp_tag_hit, False, mshr_stalled=stalled
        )

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def is_duplicate_prefetch(self, line_addr: int, when: int) -> bool:
        """True when a prefetch would be squashed: line resident or in flight."""
        if self.l1.contains(line_addr):
            return True
        if self.buffer is not None and self.buffer.contains(line_addr):
            return True
        return self.mshr.pending_ready(line_addr, when) is not None

    def issue_prefetch(
        self,
        line_addr: int,
        grant: int,
        source: FillSource,
        trigger_pc: int,
        nsp_tag: bool = False,
    ) -> PrefetchOutcome:
        """Perform a prefetch that already holds an L1 port at ``grant``.

        Duplicate squashing is the *caller's* job (check
        :meth:`is_duplicate_prefetch` first) so that squashes can be counted
        before a port is consumed — the paper squashes duplicates with no
        penalty.
        """
        l2_data_at, l2_hit = self._fetch_into_l2(
            line_addr, grant + self.config.l1.latency, TransferKind.PREFETCH_FILL
        )
        self.l1_bus.transfer(TransferKind.PREFETCH_FILL, grant)
        ready, _ = self.mshr.allocate(line_addr, l2_data_at, grant)

        if self.buffer is not None:
            victim = self.buffer.insert(line_addr, trigger_pc, source)
            if victim is not None and self.on_buffer_evict is not None:
                self.on_buffer_evict(victim)
        else:
            evicted = self.l1.fill(line_addr, grant, source, trigger_pc, nsp_tag=nsp_tag)
            if evicted is not None:
                self._l1_writeback_sink(evicted, grant)
        return PrefetchOutcome(line_addr, ready, l2_hit)

    # ------------------------------------------------------------------
    # Invariant audit (sanitizer hook)
    # ------------------------------------------------------------------
    def validate(self, now: int = 0, deep: bool = False) -> None:
        """Audit the whole hierarchy; ``deep`` adds the full L2 scan.

        The L1 (256 lines at paper defaults) is cheap enough for every
        periodic sweep; the L2 (16K lines) is only worth scanning at
        warmup boundaries and end of run, which is what ``deep`` gates.
        """
        self.l1.validate()
        self.mshr.validate(now)
        self.ports.validate()
        if deep:
            self.l2.validate()

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush the L1 (classifying resident prefetched lines) and buffer."""
        for _ in self.l1.flush():
            pass
        if self.buffer is not None:
            for line in self.buffer.drain():
                if self.on_buffer_evict is not None:
                    self.on_buffer_evict(line)

    # -- metrics convenience ------------------------------------------------
    def l1_demand_accesses(self) -> int:
        s = self.l1.stats
        return int(
            s.get("demand_read_hit")
            + s.get("demand_read_miss")
            + s.get("demand_write_hit")
            + s.get("demand_write_miss")
        )

    def l1_demand_misses(self) -> int:
        s = self.l1.stats
        return int(s.get("demand_read_miss") + s.get("demand_write_miss"))

    def l2_demand_accesses(self) -> int:
        s = self.l2.stats
        return int(
            s.get("demand_read_hit")
            + s.get("demand_read_miss")
            + s.get("demand_write_hit")
            + s.get("demand_write_miss")
        )

    def l2_demand_misses(self) -> int:
        s = self.l2.stats
        return int(s.get("demand_read_miss") + s.get("demand_write_miss"))
