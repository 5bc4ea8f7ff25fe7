"""Unit tests for the workload generators and the software-prefetch pass."""

import numpy as np
import pytest

from repro.trace.record import LOAD, SW_PREFETCH, InstrClass
from repro.workloads import (
    build_trace,
    cached_trace,
    count_inserted,
    get_workload,
    insert_software_prefetches,
    workload_names,
)
from repro.workloads.base import mix_local_accesses
from repro.trace.stream import TraceBuilder


TABLE2_ORDER = ["bh", "em3d", "perimeter", "ijpeg", "fpppp", "gcc", "wave5", "gap", "gzip", "mcf"]


class TestRegistry:
    def test_table2_order(self):
        assert workload_names() == TABLE2_ORDER

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("linpack")

    def test_infos_carry_paper_rates(self):
        for name in workload_names():
            info = get_workload(name).info
            assert 0 < info.paper_l1_miss < 1
            assert 0 <= info.paper_l2_miss < 1
            assert info.suite in ("olden", "spec95", "spec2000")


@pytest.mark.parametrize("name", TABLE2_ORDER)
class TestEveryWorkload:
    def test_meets_budget(self, name):
        t = get_workload(name).generate(5000, seed=1)
        assert 5000 <= len(t) <= 5000 * 1.5

    def test_deterministic(self, name):
        a = get_workload(name).generate(4000, seed=5)
        b = get_workload(name).generate(4000, seed=5)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.pc, b.pc)

    def test_seed_changes_trace(self, name):
        a = get_workload(name).generate(4000, seed=1)
        b = get_workload(name).generate(4000, seed=2)
        n = min(len(a), len(b))
        assert not np.array_equal(a.addr[:n], b.addr[:n])

    def test_realistic_mix(self, name):
        s = get_workload(name).generate(8000, seed=0).summary()
        mem_frac = s.memory_references / s.instructions
        assert 0.1 < mem_frac < 0.7, f"{name}: memory fraction {mem_frac}"
        assert s.branches > 0
        assert s.unique_pcs >= 10


class TestLocalMixer:
    def test_fraction_approximate(self):
        rng = np.random.default_rng(0)
        cold = np.arange(100, dtype=np.uint64) * 4096 + (1 << 30)
        mixed = mix_local_accesses(rng, cold, 0.8)
        hot = (mixed >= 0x7F80_0000).sum()
        assert abs(hot / len(mixed) - 0.8) < 0.05

    def test_preserves_cold_order(self):
        rng = np.random.default_rng(0)
        cold = np.array([10**6, 2 * 10**6, 3 * 10**6], dtype=np.uint64)
        mixed = mix_local_accesses(rng, cold, 0.5)
        kept = [a for a in mixed if a < 0x7F80_0000]
        assert kept == list(cold)

    def test_zero_fraction_identity(self):
        rng = np.random.default_rng(0)
        cold = np.array([8, 16], dtype=np.uint64)
        assert np.array_equal(mix_local_accesses(rng, cold, 0.0), cold)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            mix_local_accesses(rng, np.array([8], dtype=np.uint64), 1.0)


class TestSoftwarePrefetchPass:
    def _strided_trace(self, n=40, stride=64):
        b = TraceBuilder("t")
        for i in range(n):
            b.load("loop.ld", 0x10000 + i * stride)
            b.ops("loop.op", 1)
        return b.build()

    def test_inserts_on_stable_stride(self):
        t = insert_software_prefetches(self._strided_trace(), lookahead_lines=4)
        assert count_inserted(t) > 0

    def test_prefetch_targets_ahead_of_stream(self):
        t = insert_software_prefetches(self._strided_trace(stride=64), lookahead_lines=4)
        sw = t.addr[t.iclass == int(SW_PREFETCH)]
        loads = t.addr[t.iclass == int(LOAD)]
        assert sw.min() > loads.min()  # always forward for a positive stride

    def test_one_prefetch_per_line_per_pc(self):
        # stride 8: four loads share a 32B line -> at most one prefetch each 4.
        t = insert_software_prefetches(self._strided_trace(n=64, stride=8))
        assert count_inserted(t) <= 64 // 4 + 1

    def test_pointer_chase_gets_none(self):
        rng = np.random.default_rng(0)
        b = TraceBuilder("p")
        for a in rng.integers(1, 1 << 20, 100):
            b.load("chase.ld", int(a) * 8)
        t = insert_software_prefetches(b.build())
        assert count_inserted(t) == 0

    def test_original_records_preserved_in_order(self):
        base = self._strided_trace()
        t = insert_software_prefetches(base)
        kept = t.addr[t.iclass != int(SW_PREFETCH)]
        assert np.array_equal(kept, base.addr)

    def test_sw_pcs_distinct_from_load_pcs(self):
        t = insert_software_prefetches(self._strided_trace())
        sw_pcs = set(t.pc[t.iclass == int(SW_PREFETCH)].tolist())
        other_pcs = set(t.pc[t.iclass != int(SW_PREFETCH)].tolist())
        assert sw_pcs and not (sw_pcs & other_pcs)

    def test_negative_stride_supported(self):
        b = TraceBuilder("r")
        for i in range(40):
            b.load("rev.ld", 0x100000 - i * 64)
        t = insert_software_prefetches(b.build())
        assert count_inserted(t) > 0
        sw = t.addr[t.iclass == int(SW_PREFETCH)].astype(np.int64)
        assert sw.max() < 0x100000

    def test_validation(self):
        with pytest.raises(ValueError):
            insert_software_prefetches(self._strided_trace(), lookahead_lines=0)
        with pytest.raises(ValueError):
            insert_software_prefetches(self._strided_trace(), confidence=0)

    @pytest.mark.parametrize("line_bytes", [0, 48, 96])
    def test_line_size_must_be_a_power_of_two(self, line_bytes):
        # With a 48-byte line the pass would dedupe on 32-byte lines (its
        # shift is bit_length() - 1) while stepping targets by 48.
        with pytest.raises(ValueError, match="line_bytes must be a positive power of two"):
            insert_software_prefetches(self._strided_trace(), line_bytes=line_bytes)

    def test_line_size_sets_dedup_granularity(self):
        # stride 8 over 64-byte lines: one prefetch per eight loads.
        t = insert_software_prefetches(self._strided_trace(n=64, stride=8), line_bytes=64)
        assert count_inserted(t) == 64 // 8


class TestBuildTrace:
    def test_includes_sw_prefetches_by_default(self):
        t = build_trace("ijpeg", 8000, seed=0)
        assert count_inserted(t) > 0

    def test_can_disable(self):
        t = build_trace("ijpeg", 8000, seed=0, software_prefetch=False)
        assert count_inserted(t) == 0

    def test_pointer_benchmarks_get_few(self):
        mcf = build_trace("mcf", 10000, seed=0)
        ijpeg = build_trace("ijpeg", 10000, seed=0)
        assert count_inserted(mcf) < count_inserted(ijpeg)

    def test_cached_trace_is_one_memo_entry_however_it_is_called(self):
        trace = cached_trace("em3d", 3000, 1)
        assert cached_trace("em3d", 3000, 1, True) is trace
        assert cached_trace(name="em3d", n_insts=3000, seed=1, software_prefetch=True) is trace
        assert cached_trace("em3d", 3000, 1, software_prefetch=False) is not trace
        cached_trace.cache_clear()
        assert cached_trace("em3d", 3000, 1) is not trace
