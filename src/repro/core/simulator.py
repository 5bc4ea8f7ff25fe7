"""Top-level simulator facade.

``Simulator`` turns a :class:`~repro.common.config.SimulationConfig` into
one engine, runs a trace, and returns a :class:`SimulationResult` with
every number the paper's figures need: IPC, good/bad prefetch counts
(total and per source), traffic splits, and miss rates.  For the
pipeline engine it wires a fresh hierarchy + filter + classifier object
model; the kernel engine is built from the config alone and returns the
result itself.  Both engines turn their counters into the result's
scalars through :func:`build_result`.  ``run_simulation`` is the
one-call convenience used by the examples and benches; two-pass
protocols (oracle, static filter) have their own helpers in
:mod:`repro.analysis.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.common.config import KNOWN_ENGINES, FilterKind, SimulationConfig
from repro.common.stats import Stats
from repro.core.classifier import PrefetchClassifier, PrefetchTally
from repro.core.pipeline import OoOPipeline
from repro.filters.adaptive import AdaptiveFilter
from repro.filters.base import PollutionFilter
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter
from repro.mem.cache import FillSource
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace.stream import Trace


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one run."""

    trace_name: str
    filter_name: str
    instructions: int
    cycles: int
    prefetch: PrefetchTally
    per_source: Dict[FillSource, PrefetchTally]
    l1_demand_accesses: int
    l1_demand_misses: int
    l2_demand_accesses: int
    l2_demand_misses: int
    l1_prefetch_fills: int
    prefetch_line_traffic: int
    demand_line_traffic: int
    stats: Stats

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_miss_rate(self) -> float:
        a = self.l1_demand_accesses
        return self.l1_demand_misses / a if a else 0.0

    @property
    def l2_miss_rate(self) -> float:
        a = self.l2_demand_accesses
        return self.l2_demand_misses / a if a else 0.0

    @property
    def prefetch_to_normal_ratio(self) -> float:
        """Figure 2's metric: prefetch L1 accesses / demand L1 accesses."""
        a = self.l1_demand_accesses
        return self.l1_prefetch_fills / a if a else 0.0

    @property
    def bad_good_ratio(self) -> float:
        return self.prefetch.bad_good_ratio


def build_filter(config: SimulationConfig, stats: Stats) -> PollutionFilter:
    """Instantiate the filter named by the config (dynamic kinds only).

    STATIC and ORACLE need profile inputs from a prior run — build those
    through :mod:`repro.analysis.sweep`, which owns the two-pass protocols.
    """
    f = config.filter
    group = stats["filter"]
    if f.kind is FilterKind.NONE:
        return NullFilter(group)
    if f.kind is FilterKind.PA:
        return PAFilter(f.table_entries, f.counter_bits, f.initial_value, f.threshold, stats=group)
    if f.kind is FilterKind.PC:
        return PCFilter(f.table_entries, f.counter_bits, f.initial_value, f.threshold, stats=group)
    if f.kind is FilterKind.ADAPTIVE:
        return AdaptiveFilter(
            f.table_entries,
            f.counter_bits,
            f.initial_value,
            f.threshold,
            scheme="pa",
            accuracy_floor=f.adaptive_accuracy_floor,
            window=f.adaptive_window,
            stats=group,
        )
    raise ValueError(
        f"filter kind {f.kind.value!r} needs a profile; use repro.analysis.sweep helpers"
    )


class Simulator:
    """One configured machine, ready to run traces.

    Only a pipeline simulator has ``stats``/``hierarchy``/``filter``/``classifier``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        filter_: Optional[PollutionFilter] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.config = config
        # An explicit engine argument wins; otherwise the config names it.
        self.engine_name = engine if engine is not None else config.engine
        if self.engine_name == "kernel":
            if filter_ is not None:
                raise ValueError(
                    f"the kernel engine inlines only the null/PA/PC filters, not "
                    f"{type(filter_).__name__}; run this filter on the pipeline engine"
                )
            # Imported here: the kernel module imports this one for its result.
            from repro.core.kernel import KernelEngine

            self.engine = KernelEngine(config)
            return
        if self.engine_name != "pipeline":
            raise ValueError(
                f"unknown engine kind {self.engine_name!r}; "
                f"choose one of {', '.join(KNOWN_ENGINES)}"
            )
        self.stats = Stats()
        self.hierarchy = MemoryHierarchy(
            config.hierarchy, self.stats["mem"], config.prefetch_buffer
        )
        self.filter = filter_ if filter_ is not None else build_filter(config, self.stats)
        self.classifier = PrefetchClassifier(self.stats["classifier"])
        self.engine = OoOPipeline(
            config, self.hierarchy, self.filter, self.classifier, self.stats["pipeline"]
        )

    def run(self, trace: Trace) -> SimulationResult:
        """Run the trace; statistics cover the post-warmup region only.

        With ``config.warmup_instructions > 0`` every counter (miss rates,
        prefetch tallies, traffic, cycles) is reported as the delta between
        the warmup boundary and the end of the run, which removes the
        cold-start compulsory misses that short traces otherwise inflate.
        """
        if self.engine_name == "kernel":
            return self.engine.run(trace)
        marker: dict = {"counters": {}, "tallies": None, "cycles": 0, "done": False}

        def on_warmup(cycles_so_far: int) -> None:
            marker["counters"] = self.stats.snapshot()
            marker["tallies"] = self.classifier.snapshot()
            marker["cycles"] = cycles_so_far
            marker["done"] = True

        if self.config.warmup_instructions > 0:
            self.engine.on_warmup = on_warmup

        total_cycles = self.engine.run(trace)
        # One deep invariant audit per run, while the flush hooks are still
        # bound — the stat-conservation check needs live batched counters
        # to compare against.
        if self.engine.sanitizer is not None:
            self.engine.sanitizer.final(self.engine, total_cycles)
        # Fold all batched hot-path counters into the stats dicts and drop
        # the bound-method flush hooks: the result below carries ``stats``
        # across process boundaries (parallel runs, disk cache) and must be
        # plain data, not a handle on the whole hardware-model graph.
        self.stats.detach_flush()
        self.classifier.check_conservation()

        n = len(trace)
        if self.config.max_instructions is not None:
            n = min(n, self.config.max_instructions)
        warmup = min(self.config.warmup_instructions, n) if marker["done"] else 0

        final = self.stats.snapshot()
        counters = Stats.delta(marker["counters"], final) if warmup else final
        cycles = max(1, total_cycles - marker["cycles"]) if warmup else total_cycles

        if warmup and marker["tallies"] is not None:
            per_source = {
                src: self.classifier.per_source[src].minus(earlier)
                for src, earlier in marker["tallies"].items()
            }
        else:
            per_source = {src: t.copy() for src, t in self.classifier.per_source.items()}
        return build_result(
            trace.name, self.filter.name, n - warmup, cycles, counters, per_source, self.stats
        )


def build_result(
    trace_name: str, filter_name: str, instructions: int, cycles: int,
    counters: Mapping[str, float], per_source: Dict[FillSource, PrefetchTally], stats: Stats,
) -> SimulationResult:
    """The result of one run, for both engines: ``counters`` maps stats
    keys to their post-warmup counts (a missing key counts as zero) and
    ``stats`` is the whole run's tree, carried as is."""
    total_tally = PrefetchTally()
    for tally in per_source.values():
        total_tally = total_tally.merged_with(tally)

    def c(key: str) -> int:
        return int(counters.get(key, 0))

    l1_reads = c("mem.l1.demand_read_hit") + c("mem.l1.demand_read_miss")
    l1_writes = c("mem.l1.demand_write_hit") + c("mem.l1.demand_write_miss")
    l1_misses = c("mem.l1.demand_read_miss") + c("mem.l1.demand_write_miss")
    l2_reads = c("mem.l2.demand_read_hit") + c("mem.l2.demand_read_miss")
    l2_writes = c("mem.l2.demand_write_hit") + c("mem.l2.demand_write_miss")
    l2_misses = c("mem.l2.demand_read_miss") + c("mem.l2.demand_write_miss")
    pf_l1 = c("mem.l1_bus.lines_prefetch_fill")
    return SimulationResult(
        trace_name=trace_name,
        filter_name=filter_name,
        instructions=instructions,
        cycles=cycles,
        prefetch=total_tally,
        per_source=per_source,
        l1_demand_accesses=l1_reads + l1_writes,
        l1_demand_misses=l1_misses,
        l2_demand_accesses=l2_reads + l2_writes,
        l2_demand_misses=l2_misses,
        l1_prefetch_fills=pf_l1,
        prefetch_line_traffic=pf_l1 + c("mem.mem_bus.lines_prefetch_fill"),
        demand_line_traffic=c("mem.l1_bus.lines_demand_fill")
        + c("mem.mem_bus.lines_demand_fill"),
        stats=stats,
    )


def run_simulation(
    config: SimulationConfig,
    trace: Trace,
    filter_: Optional[PollutionFilter] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Build a fresh machine from ``config`` and run ``trace`` through it.

    ``engine=None`` defers to ``config.engine`` (which defaults to the
    timing-accurate pipeline engine).
    """
    return Simulator(config, filter_, engine).run(trace)
