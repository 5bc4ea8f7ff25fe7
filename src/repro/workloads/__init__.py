"""The paper's 10 benchmarks (Table 2) as synthetic trace generators.

Importing this package registers every workload; use :func:`get_workload`
/ :func:`workload_names` for access, and :func:`build_trace` for the
standard pipeline (generate + compiler prefetch insertion).
"""

from __future__ import annotations

from functools import lru_cache

from repro.trace.stream import Trace
from repro.workloads.base import (
    REGISTRY,
    Workload,
    WorkloadInfo,
    emit_access_block,
    get_workload,
    register_workload,
    workload_names,
)
from repro.workloads.swprefetch import count_inserted, insert_software_prefetches

# Import order defines the Table 2 ordering of workload_names().
from repro.workloads import olden_bh  # noqa: E402,F401
from repro.workloads import olden_em3d  # noqa: E402,F401
from repro.workloads import olden_perimeter  # noqa: E402,F401
from repro.workloads import spec_ijpeg  # noqa: E402,F401
from repro.workloads import spec_fpppp  # noqa: E402,F401
from repro.workloads import spec_gcc  # noqa: E402,F401
from repro.workloads import spec_wave5  # noqa: E402,F401
from repro.workloads import spec_gap  # noqa: E402,F401
from repro.workloads import spec_gzip  # noqa: E402,F401
from repro.workloads import spec_mcf  # noqa: E402,F401


def build_trace(
    name: str,
    n_insts: int = 100_000,
    seed: int = 0,
    software_prefetch: bool = True,
    lookahead_lines: int = 4,
) -> Trace:
    """Generate a benchmark trace, optionally with compiler prefetches.

    This is the standard way experiments obtain inputs: it matches the
    paper's setup of Alpha binaries compiled at ``-O4`` (software prefetch
    instructions present) driving the simulator.
    """
    trace = get_workload(name).generate(n_insts, seed)
    if software_prefetch:
        trace = insert_software_prefetches(trace, lookahead_lines=lookahead_lines)
    return trace


@lru_cache(maxsize=64)
def _memo_trace(name: str, n_insts: int, seed: int, software_prefetch: bool) -> Trace:
    return build_trace(name, n_insts, seed, software_prefetch)


def cached_trace(
    name: str,
    n_insts: int = 100_000,
    seed: int = 0,
    software_prefetch: bool = True,
) -> Trace:
    """Memoised :func:`build_trace` — traces are immutable, so benches and
    sweeps that rerun the same workload share one copy.

    The memo is keyed on all four parameters positionally, so every
    spelling of a call (defaults left out, keywords) finds the same
    trace; ``cached_trace.cache_clear()`` empties it."""
    return _memo_trace(name, n_insts, seed, software_prefetch)


cached_trace.cache_clear = _memo_trace.cache_clear  # type: ignore[attr-defined]


__all__ = [
    "REGISTRY",
    "Trace",
    "Workload",
    "WorkloadInfo",
    "build_trace",
    "cached_trace",
    "count_inserted",
    "emit_access_block",
    "get_workload",
    "insert_software_prefetches",
    "register_workload",
    "workload_names",
]
