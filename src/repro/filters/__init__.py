"""Cache-pollution filters — the paper's contribution.

Every filter implements the same two-sided protocol
(:class:`~repro.filters.base.PollutionFilter`):

* ``should_prefetch(request)`` — consulted for every in-flight prefetch
  before it is issued to the prefetch queue; returning False terminates the
  prefetch (no L1 fill, no bus traffic, no port use);
* ``on_feedback(line_addr, trigger_pc, referenced)`` — called when a
  prefetched line leaves the L1 (or prefetch buffer), delivering the PIB/RIB
  verdict the history table learns from.

Implementations:

* :class:`~repro.filters.null_filter.NullFilter` — no filtering (baseline),
* :class:`~repro.filters.pa_filter.PAFilter` — Per-Address scheme (§4.1),
* :class:`~repro.filters.pc_filter.PCFilter` — Program-Counter scheme (§4.2),
* :class:`~repro.filters.static_filter.StaticFilter` — Srinivasan-style
  offline profiling filter (the related-work comparison),
* :class:`~repro.filters.oracle.OracleFilter` — perfect future knowledge
  (the Section 3 motivation experiment),
* :class:`~repro.filters.adaptive.AdaptiveFilter` — accuracy-gated PA/PC
  filtering (the "advanced features" sketched in §5.2.1).
"""

from repro.filters.adaptive import AdaptiveFilter
from repro.filters.base import PollutionFilter
from repro.filters.history_table import HistoryTable
from repro.filters.hybrid import HybridFilter
from repro.filters.null_filter import NullFilter
from repro.filters.oracle import OracleFilter, OracleProfile, OracleProfileBuilder
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter
from repro.filters.static_filter import ProfilingObserver, StaticFilter, StaticProfile

__all__ = [
    "AdaptiveFilter",
    "HistoryTable",
    "HybridFilter",
    "NullFilter",
    "OracleFilter",
    "OracleProfile",
    "OracleProfileBuilder",
    "PAFilter",
    "PCFilter",
    "PollutionFilter",
    "ProfilingObserver",
    "StaticFilter",
    "StaticProfile",
]
