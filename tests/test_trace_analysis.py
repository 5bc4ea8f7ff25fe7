"""Tests for the trace characterisation utilities."""

import numpy as np
import pytest

from repro.trace.analysis import (
    ReuseHistogram,
    branch_bias,
    characterise,
    footprint,
    reuse_distance_histogram,
    stride_profile,
    working_set_curve,
)
from repro.trace.stream import TraceBuilder


def loop_trace(lines=8, repeats=20):
    """Cyclic sweep over `lines` distinct cache lines."""
    b = TraceBuilder("loop")
    for r in range(repeats):
        for i in range(lines):
            b.load("ld", 0x1000 + i * 32)
    return b.build()


def stream_trace(n=200):
    b = TraceBuilder("stream")
    for i in range(n):
        b.load("ld", 0x1000 + i * 32)
    return b.build()


class TestReuseDistance:
    def test_cyclic_loop_distances(self):
        t = loop_trace(lines=8, repeats=10)
        h = reuse_distance_histogram(t, bucket_limits=(4, 16, 64))
        assert h.cold_misses == 8  # first touches only
        # all reuses at distance 7 -> second bucket (<16)
        assert h.counts[1] == h.total - 8
        assert h.counts[0] == 0

    def test_stream_is_all_cold(self):
        h = reuse_distance_histogram(stream_trace())
        assert h.cold_misses == h.total

    def test_hit_rate_at_cache_size(self):
        t = loop_trace(lines=8, repeats=10)
        h = reuse_distance_histogram(t, bucket_limits=(4, 16, 64))
        assert h.hit_rate_at(16) == pytest.approx((h.total - 8) / h.total)
        assert h.hit_rate_at(4) == 0.0

    def test_empty_trace(self):
        b = TraceBuilder("e")
        b.ops("x", 3)
        h = reuse_distance_histogram(b.build())
        assert h.total == 0
        assert h.hit_rate_at(1000) == 0.0


class TestWorkingSet:
    def test_loop_working_set_constant(self):
        t = loop_trace(lines=8, repeats=40)
        curve = working_set_curve(t, window=80)
        assert all(v == 8 for v in curve)

    def test_stream_working_set_equals_window(self):
        curve = working_set_curve(stream_trace(300), window=100)
        assert curve[0] == 100

    def test_window_validated(self):
        with pytest.raises(ValueError):
            working_set_curve(stream_trace(10), window=0)


class TestFootprint:
    def test_counts_unique_lines(self):
        fp = footprint(loop_trace(lines=8))
        assert fp["lines"] == 8
        assert fp["bytes"] == 8 * 32


@pytest.mark.parametrize("line_bytes", [0, 48, 100])
def test_line_size_must_be_a_power_of_two(line_bytes):
    # The line shift is bit_length() - 1, which for 48 is a 32-byte line:
    # anything but a power of two must be refused, not measured wrongly.
    t = loop_trace(lines=8, repeats=2)
    for measure in (reuse_distance_histogram, working_set_curve, footprint, characterise):
        with pytest.raises(ValueError, match="line_bytes must be a positive power of two"):
            measure(t, line_bytes=line_bytes)


class TestStrideProfile:
    def test_pure_stream_fully_strided(self):
        p = stride_profile(stream_trace(100))
        # first two accesses establish the stride; the rest repeat it
        assert p.strided_loads == 98
        assert p.strided_fraction > 0.9

    def test_random_not_strided(self):
        rng = np.random.default_rng(0)
        b = TraceBuilder("rand")
        for a in rng.integers(1, 1 << 24, 300):
            b.load("ld", int(a) * 8)
        p = stride_profile(b.build())
        assert p.strided_fraction < 0.05

    def test_empty(self):
        b = TraceBuilder("e")
        b.ops("x", 1)
        assert stride_profile(b.build()).strided_fraction == 0.0


class TestBranchBias:
    def test_rates(self):
        b = TraceBuilder("br")
        for i in range(10):
            b.branch("always", True)
            b.branch("alternate", i % 2 == 0)
        biases = branch_bias(b.build())
        values = sorted(biases.values())
        assert values == [0.5, 1.0]


class TestCharacterise:
    def test_full_summary_on_workload(self):
        from repro.workloads import build_trace

        stats = characterise(build_trace("fpppp", 6000, seed=0))
        assert 0 < stats["memory_fraction"] < 1
        assert stats["footprint_kb"] > 1
        assert 0 <= stats["l1_sized_hit_rate"] <= stats["l2_sized_hit_rate"] <= 1
        assert stats["software_prefetches"] > 0

    def test_stream_vs_pointer_signatures(self):
        from repro.workloads import build_trace

        fpppp = characterise(build_trace("fpppp", 6000, seed=0))
        mcf = characterise(build_trace("mcf", 6000, seed=0))
        assert fpppp["strided_load_fraction"] > mcf["strided_load_fraction"]
