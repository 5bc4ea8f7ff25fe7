"""Focused tests for engine internals: drain throttles, backpressure,
and extension-slot duck typing."""

import numpy as np

from repro.common.config import SimulationConfig
from repro.core.pipeline import _DRAIN_BURST, _MSHR_DEMAND_RESERVE, OoOPipeline
from repro.core.simulator import Simulator
from repro.prefetch.markov import MarkovPrefetcher
from repro.trace.stream import TraceBuilder
from repro.workloads import build_trace


def streaming_store_trace(n_lines=3000):
    """A pure store stream — the pattern that exposed MSHR runaway."""
    b = TraceBuilder("stores")
    for i in range(n_lines):
        b.store("st", 0x800000 + i * 32)
        b.ops("op", 1)
    return b.build()


class TestStoreBackpressure:
    def test_store_stream_does_not_diverge(self):
        """Without backpressure, MSHR ready times compound into the billions
        and post-stream loads see astronomical latencies."""
        cfg = SimulationConfig.paper_default().with_prefetch(nsp=False, sdp=False, software=False)
        sim = Simulator(cfg)
        cycles = sim.engine.run(streaming_store_trace())
        # ~3000 serialized memory stores cannot take more than a few hundred
        # cycles each even fully serialised.
        assert cycles < 3000 * 400
        stalls = sim.hierarchy.mshr.stats.get("structural_stall_cycles")
        assert stalls < 10**8  # runaway produced ~10^10 before the fix

    def test_backpressure_flag_reaches_engine(self):
        cfg = SimulationConfig.paper_default().with_prefetch(nsp=False, sdp=False, software=False)
        sim = Simulator(cfg)
        sim.engine.run(streaming_store_trace(2000))
        assert sim.hierarchy.mshr.stats.get("structural_stall") > 0


class TestDrainThrottles:
    def test_constants_sane(self):
        assert 1 <= _DRAIN_BURST <= 16
        assert 0 <= _MSHR_DEMAND_RESERVE < 32

    def test_queue_drains_under_stalls(self):
        """Prefetches must actually issue on a miss-heavy trace (the drain
        starvation bug: ports looked perpetually booked in slot-space)."""
        trace = build_trace("em3d", 15000, seed=3)
        sim = Simulator(SimulationConfig.paper_default())
        r = sim.run(trace)
        assert r.prefetch.issued > 100
        # and the queue is not just dropping everything
        assert r.prefetch.dropped < r.prefetch.generated * 0.5


class TestExtensionSlot:
    def test_markov_installable(self):
        cfg = SimulationConfig.paper_default().with_prefetch(
            nsp=False, sdp=False, software=False, stride=True
        )
        sim = Simulator(cfg)
        sim.engine.set_extension_prefetcher(MarkovPrefetcher(entries=256))
        trace = build_trace("mcf", 10000, seed=0)
        r = sim.run(trace)
        from repro.mem.cache import FillSource

        assert r.per_source[FillSource.STRIDE].generated > 0

    def test_stride_address_duck_typing_flag(self):
        cfg = SimulationConfig.paper_default().with_prefetch(stride=True)
        sim = Simulator(cfg)
        assert sim.engine._stride_wants_address is True
        sim.engine.set_extension_prefetcher(MarkovPrefetcher())
        assert sim.engine._stride_wants_address is False


class TestLatencyHistogram:
    def test_buckets_cover_all_loads(self):
        from repro.trace.record import InstrClass

        trace = build_trace("em3d", 12000, seed=2)
        sim = Simulator(SimulationConfig.paper_default())
        sim.run(trace)
        lat = sim.stats["pipeline"]["load_latency"]
        total = sum(lat.get(k) for k in ("l1", "l2", "memory", "queued"))
        n_loads = int((trace.iclass == int(InstrClass.LOAD)).sum())
        assert total == n_loads

    def test_hot_trace_is_l1_dominated(self):
        b = TraceBuilder("hot")
        for _ in range(400):
            b.load("ld", 0x1000)
        sim = Simulator(SimulationConfig.paper_default())
        sim.run(b.build())
        lat = sim.stats["pipeline"]["load_latency"]
        # The first access misses to memory and the loads dispatched during
        # its fill merge into the pending MSHR entry (partial latencies);
        # everything after the fill is a pure L1 hit.
        assert lat.get("l1") >= 300
        assert lat.get("l1") + lat.get("l2") + lat.get("memory") + lat.get("queued") == 400

    def test_cold_trace_pays_memory(self):
        b = TraceBuilder("cold")
        for i in range(300):
            b.load("ld", 0x900000 + i * 4096)
            b.ops("op", 4)
        cfg = SimulationConfig.paper_default().with_prefetch(nsp=False, sdp=False, software=False)
        sim = Simulator(cfg)
        sim.run(b.build())
        lat = sim.stats["pipeline"]["load_latency"]
        assert lat.get("memory") + lat.get("queued") > 250
