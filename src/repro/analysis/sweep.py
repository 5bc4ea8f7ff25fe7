"""Experiment drivers: single runs, filter comparisons, parameter sweeps.

Everything an experiment needs above :class:`~repro.core.simulator
.Simulator`: trace acquisition, two-pass protocols (oracle / static
filter), and the three sweeps the paper's Sections 5.3–5.5 perform.
All drivers are deterministic given (workload, n_insts, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig
from repro.core.simulator import SimulationResult, Simulator
from repro.filters.oracle import OracleFilter, OracleProfileBuilder
from repro.filters.static_filter import ProfilingObserver, StaticFilter
from repro.trace.stream import Trace
from repro.workloads import cached_trace


@dataclass(frozen=True)
class FilterSetup:
    """A named filter scenario within a comparison (one bar group)."""

    label: str
    kind: FilterKind
    config: Optional[SimulationConfig] = None


def _trace_for(workload: str, n_insts: int, seed: int, software_prefetch: bool = True) -> Trace:
    return cached_trace(workload, n_insts, seed, software_prefetch)


def run_workload(
    workload: str,
    config: SimulationConfig,
    n_insts: int = 100_000,
    seed: int = 0,
    engine: Optional[str] = None,
    software_prefetch: bool = True,
    trace: Optional[Trace] = None,
) -> SimulationResult:
    """One run of one benchmark under one configuration.

    Dispatches to the two-pass protocols automatically when the config asks
    for the ORACLE or STATIC filter.  ``engine=None`` defers to
    ``config.engine``; a pre-built ``trace`` (e.g. from a
    :class:`~repro.trace.store.TraceStore`, or one a pool worker
    inherited from its parent) skips trace synthesis entirely.
    """
    if trace is None:
        trace = _trace_for(workload, n_insts, seed, software_prefetch)
    kind = config.filter.kind
    if kind is FilterKind.ORACLE:
        return run_oracle(trace, config, engine)
    if kind is FilterKind.STATIC:
        return run_static(trace, config, engine)
    return Simulator(config, engine=engine).run(trace)


def run_oracle(trace: Trace, config: SimulationConfig, engine: Optional[str] = None) -> SimulationResult:
    """Two-pass oracle: profile with no filtering, replay dropping bad ones."""
    profiler = OracleProfileBuilder()
    Simulator(config, filter_=profiler, engine=engine).run(trace)
    oracle = OracleFilter(profiler.profile)
    return Simulator(config, filter_=oracle, engine=engine).run(trace)


def run_static(trace: Trace, config: SimulationConfig, engine: Optional[str] = None) -> SimulationResult:
    """Two-pass static filter: offline profile, then PC-set filtering."""
    observer = ProfilingObserver()
    Simulator(config, filter_=observer, engine=engine).run(trace)
    static = StaticFilter(observer.profile, config.filter.static_bad_fraction)
    return Simulator(config, filter_=static, engine=engine).run(trace)


def compare_filters(
    workload: str,
    base_config: SimulationConfig,
    kinds: Sequence[FilterKind] = (FilterKind.NONE, FilterKind.PA, FilterKind.PC),
    n_insts: int = 100_000,
    seed: int = 0,
    engine: Optional[str] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    backend=None,
) -> Dict[FilterKind, SimulationResult]:
    """The paper's core comparison: the same machine under several filters."""
    jobs = [
        SimulationJob(workload, base_config.with_filter(kind=kind), n_insts, seed, True, engine)
        for kind in kinds
    ]
    results = run_jobs(
        jobs, workers=workers, cache=cache, policy=policy, journal=journal, backend=backend
    )
    return dict(zip(kinds, results))


def sweep_history_sizes(
    workload: str,
    base_config: SimulationConfig,
    entries: Sequence[int] = (1024, 2048, 4096, 8192, 16384),
    n_insts: int = 100_000,
    seed: int = 0,
    engine: Optional[str] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    backend=None,
    deadline: Optional[float] = None,
) -> Dict[int, SimulationResult]:
    """Section 5.3: history-table size sensitivity (PA filter by default)."""
    jobs = [
        SimulationJob(workload, base_config.with_filter(table_entries=size), n_insts, seed, True, engine)
        for size in entries
    ]
    results = run_jobs(
        jobs, workers=workers, cache=cache, policy=policy, journal=journal,
        backend=backend, deadline=deadline,
    )
    return dict(zip(entries, results))


def sweep_l1_ports(
    workload: str,
    ports: Sequence[int] = (3, 4, 5),
    filter_kind: FilterKind = FilterKind.PA,
    n_insts: int = 100_000,
    seed: int = 0,
    engine: Optional[str] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    backend=None,
    deadline: Optional[float] = None,
) -> Dict[int, SimulationResult]:
    """Section 5.4: L1 port-count sensitivity (latency rises with ports)."""
    jobs = [
        SimulationJob(workload, SimulationConfig.paper_ports(p, filter_kind), n_insts, seed, True, engine)
        for p in ports
    ]
    results = run_jobs(
        jobs, workers=workers, cache=cache, policy=policy, journal=journal,
        backend=backend, deadline=deadline,
    )
    return dict(zip(ports, results))


def run_all_workloads(
    workloads: Sequence[str],
    config: SimulationConfig,
    n_insts: int = 100_000,
    seed: int = 0,
    engine: Optional[str] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    backend=None,
) -> List[SimulationResult]:
    jobs = [SimulationJob(w, config, n_insts, seed, True, engine) for w in workloads]
    return run_jobs(
        jobs, workers=workers, cache=cache, policy=policy, journal=journal, backend=backend
    )
