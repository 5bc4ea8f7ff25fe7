"""Trace characterisation: locality and predictability metrics.

The workload generators claim to reproduce each benchmark's *memory
locality class*; this module measures the claims directly from traces —
no simulation involved:

* :func:`reuse_distance_histogram` — LRU stack distances of memory
  references (the canonical locality signature; a cache of C lines
  captures exactly the references with distance < C),
* :func:`working_set_curve` — unique lines touched per window,
* :func:`stride_profile` — per-PC stride regularity (what fraction of a
  trace's references a stride prefetcher can learn),
* :func:`branch_bias` — per-branch taken rates (predictability),
* :func:`footprint` — total bytes/lines touched.

Used by the workload validation tests and the ``workload_atlas`` example.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.common.config import _power_of_two
from repro.trace.record import BRANCH, LOAD, STORE, SW_PREFETCH
from repro.trace.stream import Trace

_DEMAND = (int(LOAD), int(STORE))


def _demand_lines(trace: Trace, line_bytes: int = 32) -> np.ndarray:
    _power_of_two("line_bytes", line_bytes)
    mask = (trace.iclass == _DEMAND[0]) | (trace.iclass == _DEMAND[1])
    shift = np.uint64(line_bytes.bit_length() - 1)
    return (trace.addr[mask] >> shift).astype(np.uint64)


@dataclass(frozen=True)
class ReuseHistogram:
    """LRU stack-distance histogram with cache-size evaluation helpers."""

    bucket_limits: Sequence[int]
    counts: Sequence[int]
    cold_misses: int
    total: int

    def hit_rate_at(self, cache_lines: int) -> float:
        """Fraction of references with reuse distance < ``cache_lines`` —
        the hit rate of a fully-associative LRU cache that size."""
        if self.total == 0:
            return 0.0
        hits = sum(
            c for limit, c in zip(self.bucket_limits, self.counts) if limit <= cache_lines
        )
        return hits / self.total


def reuse_distance_histogram(
    trace: Trace,
    line_bytes: int = 32,
    bucket_limits: Sequence[int] = (16, 64, 256, 1024, 4096, 16384, 65536),
) -> ReuseHistogram:
    """Bucketed LRU stack distances of demand references.

    Exact distances via an ordered map (O(n·d) worst case but the move-to-
    front access pattern keeps it fast for realistic traces).  Bucket
    ``limits[i]`` counts references with distance in ``(limits[i-1],
    limits[i]]``; first-touches count separately as cold misses.
    """
    lines = _demand_lines(trace, line_bytes)
    stack: "OrderedDict[int, None]" = OrderedDict()
    counts = [0] * len(bucket_limits)
    cold = 0
    for line in lines:
        line = int(line)
        if line in stack:
            # distance = number of distinct lines more recent than `line`
            distance = 0
            for key in reversed(stack):
                if key == line:
                    break
                distance += 1
            del stack[line]
            for i, limit in enumerate(bucket_limits):
                if distance < limit:
                    counts[i] += 1
                    break
            else:
                cold += 1  # beyond the largest bucket: treat as cold
        else:
            cold += 1
        stack[line] = None
    return ReuseHistogram(tuple(bucket_limits), tuple(counts), cold, len(lines))


def working_set_curve(trace: Trace, window: int = 10_000, line_bytes: int = 32) -> List[int]:
    """Unique demand lines per consecutive window of memory references."""
    if window < 1:
        raise ValueError("window must be positive")
    lines = _demand_lines(trace, line_bytes)
    return [
        int(len(np.unique(lines[i : i + window])))
        for i in range(0, len(lines), window)
        if len(lines[i : i + window])
    ]


def footprint(trace: Trace, line_bytes: int = 32) -> Dict[str, int]:
    """Total unique lines/bytes the trace's demand references touch."""
    lines = np.unique(_demand_lines(trace, line_bytes))
    return {"lines": int(len(lines)), "bytes": int(len(lines)) * line_bytes}


@dataclass(frozen=True)
class StrideProfile:
    """How stride-predictable a trace's loads are."""

    total_loads: int
    strided_loads: int          # loads whose stride repeated its predecessor's
    dominant_stride_loads: int  # loads following each PC's most common stride

    @property
    def strided_fraction(self) -> float:
        return self.strided_loads / self.total_loads if self.total_loads else 0.0


def stride_profile(trace: Trace) -> StrideProfile:
    """Per-PC stride regularity of the load stream."""
    load_mask = trace.iclass == int(LOAD)
    pcs = trace.pc[load_mask]
    addrs = trace.addr[load_mask].astype(np.int64)
    last_addr: Dict[int, int] = {}
    last_stride: Dict[int, int] = {}
    stride_counts: Dict[int, Dict[int, int]] = {}
    strided = 0
    for pc, addr in zip(pcs.tolist(), addrs.tolist()):
        prev = last_addr.get(pc)
        if prev is not None:
            stride = addr - prev
            if stride != 0 and stride == last_stride.get(pc):
                strided += 1
            last_stride[pc] = stride
            per_pc = stride_counts.setdefault(pc, {})
            per_pc[stride] = per_pc.get(stride, 0) + 1
        last_addr[pc] = addr
    dominant = sum(max(c.values()) for c in stride_counts.values() if c)
    return StrideProfile(int(load_mask.sum()), strided, dominant)


def branch_bias(trace: Trace) -> Dict[int, float]:
    """Per-branch-PC taken rate (1.0/0.0 = trivially predictable)."""
    mask = trace.iclass == int(BRANCH)
    pcs = trace.pc[mask].tolist()
    takens = trace.taken[mask].tolist()
    taken_count: Dict[int, int] = {}
    total: Dict[int, int] = {}
    for pc, taken in zip(pcs, takens):
        total[pc] = total.get(pc, 0) + 1
        if taken:
            taken_count[pc] = taken_count.get(pc, 0) + 1
    return {pc: taken_count.get(pc, 0) / n for pc, n in total.items()}


def characterise(trace: Trace, line_bytes: int = 32) -> Dict[str, float]:
    """One-call summary used by the workload atlas example."""
    summary = trace.summary()
    hist = reuse_distance_histogram(trace, line_bytes)
    strides = stride_profile(trace)
    fp = footprint(trace, line_bytes)
    biases = branch_bias(trace)
    predictable = (
        sum(1 for b in biases.values() if b > 0.9 or b < 0.1) / len(biases) if biases else 0.0
    )
    sw = int((trace.iclass == int(SW_PREFETCH)).sum())
    return {
        "instructions": float(summary.instructions),
        "memory_fraction": summary.memory_references / summary.instructions,
        "footprint_kb": fp["bytes"] / 1024,
        "l1_sized_hit_rate": hist.hit_rate_at(256),    # 8KB / 32B
        "l2_sized_hit_rate": hist.hit_rate_at(16384),  # 512KB / 32B
        "strided_load_fraction": strides.strided_fraction,
        "predictable_branch_fraction": predictable,
        "software_prefetches": float(sw),
    }
