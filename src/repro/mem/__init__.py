"""Memory-hierarchy substrate: caches, MSHRs, ports, bus, prefetch buffer.

This package implements the machine's data-side memory system from scratch:

* :mod:`repro.mem.cache` — a set-associative LRU cache with the paper's
  per-line PIB/RIB bits and eviction callbacks,
* :mod:`repro.mem.mshr` — miss-status holding registers (duplicate-miss
  merging, bounded outstanding misses),
* :mod:`repro.mem.ports` — the L1 port arbiter that demand accesses and the
  prefetch queue contend on,
* :mod:`repro.mem.bus` — traffic accounting and bandwidth occupancy,
* :mod:`repro.mem.prefetch_buffer` — the dedicated fully-associative prefetch
  buffer evaluated in Section 5.5,
* :mod:`repro.mem.hierarchy` — the L1 + L2 + memory composition the core
  timing model talks to.
"""

from repro.mem.bus import Bus, TransferKind
from repro.mem.cache import Cache, EvictedLine, FillSource
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.mem.mshr import MSHRFile
from repro.mem.ports import PortArbiter
from repro.mem.prefetch_buffer import PrefetchBuffer

__all__ = [
    "AccessResult",
    "Bus",
    "Cache",
    "EvictedLine",
    "FillSource",
    "MSHRFile",
    "MemoryHierarchy",
    "PortArbiter",
    "PrefetchBuffer",
    "TransferKind",
]
