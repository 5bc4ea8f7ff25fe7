"""The benchmark's workloads: job grids, set-up, one rep, and the output check.

Every workload is a closed loop of one client: the bench submits one
batch through ``repro.analysis.parallel.run_jobs`` and waits for every
result to be journaled before the next rep starts.  Every batch runs
serially (``workers=1``) in the bench's own process: on a host with two
shared vCPUs, a second busy process measures the scheduler rather than
the program.  The kernel-tier workloads share one grid of 11 configs per
trace (filter ``none``, plus ``pa`` and ``pc`` at five history-table
sizes), so they differ only in the state the program finds on disk.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig
from repro.core.simulator import Simulator
from repro.trace.store import TraceStore
from repro.workloads import cached_trace, workload_names
from host import cpu_s, stolen_s
from tracing import ROOT_SPAN, Tracer

KERNEL_TRACES = ("em3d", "mcf", "gzip", "ijpeg")
TABLE_ENTRIES = (1024, 2048, 4096, 8192, 16384)

#: ``--seed`` moves every trace seed by this much, so two bench seeds
#: never share a trace.
SEED_STRIDE = 1000

#: ``--smoke`` cuts each grid to its first trace at this length.
SMOKE_INSTS = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    traces: tuple
    seeds: int
    n_insts: int
    #: What set-up leaves for every rep: ``cold`` (nothing), ``traces``
    #: (a filled TraceStore) or ``memo`` (the in-process ``cached_trace``
    #: memo).
    state: str
    #: Check one job in this many against a direct simulation.
    check_every: int = 1


#: The grids are sized so a timed rep takes roughly 0.5 to 2 seconds on a
#: 2-CPU host: a run fits a few dozen reps, and their median is one that
#: a burst of host noise cannot move.  ``BENCHMARK.json`` says why each
#: workload is in the set.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-cold", "kernel", ("em3d", "mcf"), 1, 100_000, "cold"),
        Workload("sweep-warm", "kernel", KERNEL_TRACES, 1, 100_000, "traces"),
        Workload("pipeline-figure", "pipeline", tuple(workload_names()), 1, 5_000, "memo",
                 check_every=4),
    )
}


def configs(engine: str, n_insts: int) -> List[SimulationConfig]:
    base = SimulationConfig.paper_default().with_warmup(n_insts // 3).with_engine(engine)
    if engine == "pipeline":
        return [base.with_filter(kind=k) for k in (FilterKind.NONE, FilterKind.PA, FilterKind.PC)]
    return [base] + [
        base.with_filter(kind=kind, table_entries=entries)
        for kind in (FilterKind.PA, FilterKind.PC)
        for entries in TABLE_ENTRIES
    ]


def make_jobs(workload: Workload, seed: int, smoke: bool) -> List[SimulationJob]:
    """The workload's grid, trace-major, so ``jobs[:len(configs)]`` is one trace."""
    n_insts = SMOKE_INSTS if smoke else workload.n_insts
    traces = workload.traces[:1] if smoke else workload.traces
    seeds = [seed * SEED_STRIDE + i for i in range(1 if smoke else workload.seeds)]
    grid = configs(workload.engine, n_insts)
    return [SimulationJob(t, cfg, n_insts, s) for t in traces for s in seeds for cfg in grid]


def trace_params(job: SimulationJob) -> tuple:
    return (job.workload, job.n_insts, job.seed, job.software_prefetch)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class State:
    """What set-up leaves behind for every rep of one workload."""

    root: Path
    store: Optional[TraceStore] = None
    #: Traces the generator produced during set-up, reused by the check.
    traces: Dict[tuple, object] = field(default_factory=dict)


def set_up(workload: Workload, jobs: List[SimulationJob], root: Path) -> State:
    cached_trace.cache_clear()
    state = State(root)
    params = list(dict.fromkeys(trace_params(j) for j in jobs))
    if workload.state == "traces":
        state.store = TraceStore(root / "traces")
        for p in params:
            state.traces[p] = state.store.get_or_build(*p)
    elif workload.state == "memo":
        for p in params:
            cached_trace(*p)
    return state


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """The measurements of one ``run_jobs`` call."""

    jobs: int
    wall_s: float
    #: Of ``wall_s``, the time the hypervisor ran other guests instead.
    steal_s: float
    cpu_s: float
    #: Bytes each on-disk layer grew by during the rep.
    disk: Dict[str, int]
    #: (job key, counters) per job, counters ``None`` where the job failed.
    outputs: List[tuple]
    failed: int
    store_hits: int
    store_misses: int
    tracer: Optional[Tracer] = None
    #: The host's slowdown around the rep (:func:`host.slowdown`), set by
    #: the harness; the rates below are at the reference speed.
    slowdown: float = 1.0

    @property
    def jobs_per_s(self) -> float:
        """Jobs per second of the time the host let the rep run, at reference speed."""
        return self.jobs * self.slowdown / max(self.wall_s - self.steal_s, 1e-6)

    @property
    def cpu_ms_per_job(self) -> float:
        """CPU milliseconds per job, at reference speed."""
        return 1000.0 * self.cpu_s / self.slowdown / self.jobs


def _bytes_under(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_rep(workload: Workload, state: State, jobs: List[SimulationJob], rep_dir: Path,
            trace: bool = False) -> Rep:
    """Fresh dirs, one timed ``run_jobs`` call, then the rep's accounting.

    With ``trace`` the call runs under a :class:`~tracing.Tracer`, kept
    on the returned rep.
    """
    gc.collect()  # start every rep from the same heap, outside the timed region
    rep_dir.mkdir(parents=True)
    cache = ResultCache(rep_dir / "cache")
    store = state.store
    if workload.state == "cold":
        cached_trace.cache_clear()
        store = TraceStore(rep_dir / "store")
    journal = RunJournal(rep_dir / "journal.jsonl")
    dirs = {
        "result_cache": cache.directory,
        "journal": journal.path,
        "trace_store": store.directory if store is not None else rep_dir / "store",
    }
    before = {k: _bytes_under(p) for k, p in dirs.items()}
    store_hits, store_misses = (store.hits, store.misses) if store is not None else (0, 0)

    # The harness pins the process to one CPU, so that CPU's steal during
    # the call is the time the host took from the rep.
    cpus = os.sched_getaffinity(0)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        cpu = cpu_s()
        steal = stolen_s(cpus)
        root = tracer.begin(ROOT_SPAN) if tracer is not None else None
        started = time.perf_counter()
        report = run_jobs(jobs, workers=1, cache=cache, trace_store=store, journal=journal,
                          return_report=True)
        wall = time.perf_counter() - started
        if root is not None:
            tracer.end(root)
        steal = (stolen_s(cpus) - steal) / len(cpus)
        cpu = cpu_s() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    disk = {k: _bytes_under(p) - before[k] for k, p in dirs.items()}
    rep = Rep(
        jobs=len(jobs), wall_s=wall, steal_s=steal, cpu_s=cpu, disk=disk,
        outputs=[(o.key, counters(o.result) if o.ok else None) for o in report.outcomes],
        failed=sum(1 for o in report.outcomes if not o.ok),
        store_hits=(store.hits - store_hits) if store is not None else 0,
        store_misses=(store.misses - store_misses) if store is not None else 0,
        tracer=tracer,
    )
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def counters(result) -> dict:
    """The outputs the check compares: the numbers every figure is built from."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "prefetch": dataclasses.asdict(result.prefetch),
        "l1_demand_accesses": result.l1_demand_accesses,
        "l1_demand_misses": result.l1_demand_misses,
        "l2_demand_accesses": result.l2_demand_accesses,
        "l2_demand_misses": result.l2_demand_misses,
        "prefetch_line_traffic": result.prefetch_line_traffic,
        "demand_line_traffic": result.demand_line_traffic,
    }


def reference(workload: Workload, state: State, jobs: List[SimulationJob]) -> Dict[str, dict]:
    """Counters of a direct, uncached simulation of the jobs the check samples.

    Traces come straight from the generator: the ones set-up built, or
    a fresh ``cached_trace`` build, never the rep's trace store.
    """
    distinct = list({job.key(): job for job in jobs}.items())
    out = {}
    for i, (key, job) in enumerate(distinct):
        if i % workload.check_every:
            continue
        params = trace_params(job)
        trace = state.traces.get(params)
        if trace is None:
            trace = cached_trace(*params)
        out[key] = counters(Simulator(job.config, engine=job.engine).run(trace))
    return out
