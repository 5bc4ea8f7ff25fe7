"""Flat array-of-ways cache state for the kernel engine.

The object-model :class:`~repro.mem.cache.Cache` keeps per-line objects;
the kernel engine instead keeps one numpy array per line field, so its
compiled loop can index a whole cache with plain integer arithmetic.
The scalar address helpers (``line_address`` / ``set_index``) stay on
:class:`~repro.common.config.CacheConfig`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.config import CacheConfig


def allocate_flat_cache(
    config: CacheConfig,
    flags: Tuple[str, ...] = (),
    extra: Tuple[str, ...] = (),
) -> dict:
    """Flat array-of-ways cache state for the kernel engine.

    One slot per way, set-major: way ``w`` of set ``s`` lives at index
    ``s * ways + w``, so a kernel reaches a set with
    ``(line & (num_sets - 1)) * ways`` — the layout documented in
    ``docs/architecture.md`` ("Engine tiers").  Returns a dict with

    * ``tag``   — int64, the full line address, ``-1`` = invalid way;
    * ``stamp`` — int64 LRU timestamp (memory-op index, not cycles);
    * one uint8 array per name in ``flags`` (e.g. dirty/PIB/RIB bits);
    * one int64 array per name in ``extra`` (e.g. the history-table
      index), for per-line metadata wider than a flag.
    """
    n = config.num_sets * config.ways
    out = {"tag": np.full(n, -1, dtype=np.int64), "stamp": np.zeros(n, dtype=np.int64)}
    for name in flags:
        out[name] = np.zeros(n, dtype=np.uint8)
    for name in extra:
        out[name] = np.zeros(n, dtype=np.int64)
    return out
