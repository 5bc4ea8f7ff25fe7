"""Parallel execution of independent simulation runs.

Every experiment in this repository decomposes into independent
``(workload, config, filter)`` simulations, so the natural speedup lever is
process-level fan-out: :func:`run_jobs` executes a batch of
:class:`SimulationJob` descriptions across forked worker processes and
returns results in submission order regardless of completion order.

Design points:

* **Determinism** — results are keyed back to their submission index, so
  ``run_jobs(jobs)[i]`` always corresponds to ``jobs[i]`` no matter which
  worker finished first; and every job is itself a pure function of its
  fields (trace synthesis is seeded).
* **Serial fallback** — ``workers=1``, a single pending job, a host
  whose workers cannot be forked (e.g. a sandbox that forbids ``fork``),
  or running *inside* a pool worker already (nested fan-out would
  oversubscribe the machine quadratically) all degrade to plain
  in-process execution with identical results.
* **Fault tolerance** — execution is delegated to
  :func:`repro.analysis.resilience.execute_batch`: a worker exception, a
  dead worker, or a hung one fails only the job concerned (retried under
  a :class:`~repro.analysis.resilience.RetryPolicy`), surviving results
  are kept, and with a :class:`~repro.analysis.checkpoint.RunJournal`
  attached a killed batch resumes where it died.  ``run_jobs`` raises
  :class:`~repro.analysis.resilience.JobsFailedError` (carrying the full
  per-job report) only after the rest of the batch has completed and
  been persisted.
* **Bounded fan-out** — worker counts above ``os.cpu_count()`` are
  clamped (extra processes only add memory pressure and context
  switches), and nonpositive requests are rejected loudly rather than
  silently serialised.
* **Cache integration** — with a :class:`~repro.analysis.result_cache
  .ResultCache` attached, cached keys are served without touching a worker
  and fresh results are written back, so a warm cache turns a whole suite
  into pure disk reads.
* **One trace acquisition per trace** — every executor acquires each
  distinct trace once (through a :class:`~repro.trace.store.TraceStore`
  when given one) and runs all of that trace's jobs on it.  The pool's
  parent acquires them before it forks, and its workers read them from
  the memory they inherit instead of building or loading their own; only
  the results cross a pipe back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.checkpoint import RunJournal
from repro.analysis.resilience import (
    BatchReport,
    JobsFailedError,
    RetryPolicy,
    execute_batch,
)
from repro.analysis.result_cache import ResultCache, run_key
from repro.common.config import SimulationConfig
from repro.core.simulator import SimulationResult
from repro.trace.store import TraceStore

_WORKERS_ENV = "REPRO_WORKERS"

#: Set in every pool worker's environment; its presence tells a nested
#: ``run_jobs`` call that it is already inside the fan-out and must run
#: serially instead of forking a second pool per worker.
_POOL_WORKER_ENV = "REPRO_POOL_WORKER"


@dataclass(frozen=True)
class SimulationJob:
    """One independent simulation, fully described by plain data.

    The job (not a live simulator) is what crosses the process boundary:
    workers rebuild the machine from the config, which keeps the queue
    record tiny and sidesteps every unpicklable hardware-model handle.
    ``engine=None`` defers to ``config.engine``; an explicit ``engine`` is
    folded into ``config``, so the two spellings build the same job and
    share one cache key and one journal line.
    """

    workload: str
    config: SimulationConfig
    n_insts: int = 100_000
    seed: int = 0
    software_prefetch: bool = True
    engine: Optional[str] = None
    #: :meth:`key`'s memo, filled at its first call: a batch asks for a
    #: job's key more than once (its outcome record, its fault token).
    #: Outside equality, hashing and ``repr``; :func:`job_to_dict` omits it.
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.engine is not None and self.engine != self.config.engine:
            object.__setattr__(self, "config", self.config.with_engine(self.engine))

    @property
    def engine_name(self) -> str:
        return self.config.engine

    def key(self) -> str:
        """The job's content hash — also its result-cache address."""
        key = self._key
        if key is None:
            key = run_key(
                self.workload,
                self.config,
                self.n_insts,
                self.seed,
                self.software_prefetch,
                self.config.engine,
            )
            object.__setattr__(self, "_key", key)
        return key


def job_to_dict(job: SimulationJob) -> Dict:
    """A job as JSON-serialisable plain data (for shared-FS queue files)."""
    return {
        "workload": job.workload,
        "config": job.config.to_dict(),
        "n_insts": job.n_insts,
        "seed": job.seed,
        "software_prefetch": job.software_prefetch,
        "engine": job.engine,
    }


def job_from_dict(data: Dict) -> SimulationJob:
    """Rebuild a :class:`SimulationJob` from :func:`job_to_dict` output.

    The config is revalidated on reconstruction, so a tampered or stale
    queue file fails loudly at claim time instead of inside a run.
    """
    return SimulationJob(
        workload=data["workload"],
        config=SimulationConfig.from_dict(data["config"]),
        n_insts=int(data["n_insts"]),
        seed=int(data["seed"]),
        software_prefetch=bool(data["software_prefetch"]),
        engine=data.get("engine"),
    )


def execute_job(job: SimulationJob, trace=None) -> SimulationResult:
    """Run one job in the current process (the executors' entry point).

    ``trace`` passes in a trace the caller already acquired; without one
    the job builds its own.  The import is lazy to keep this module
    light for the executor's child processes and free of an import
    cycle with the sweep drivers.
    """
    from repro.analysis.sweep import run_workload

    return run_workload(
        job.workload,
        job.config,
        job.n_insts,
        job.seed,
        job.engine,
        job.software_prefetch,
        trace=trace,
    )


def _validated(workers: int, source: str) -> int:
    if workers <= 0:
        raise ValueError(
            f"{source} must be a positive worker count (got {workers}); "
            "use workers=1 for serial execution"
        )
    return min(workers, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env override, else the CPU count.

    The override is clamped to the machine's CPU count; a nonpositive
    value raises (a user asking for 0 or -2 workers is a mistake, not a
    request for serial mode), and a malformed value falls back to the
    CPU count.
    """
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is not None:
            return _validated(value, f"{_WORKERS_ENV}={env}")
    return os.cpu_count() or 1


def _mark_pool_worker() -> None:
    """Brand a worker process so nested fan-out stays serial."""
    os.environ[_POOL_WORKER_ENV] = "1"


def run_jobs(
    jobs: Sequence[SimulationJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace_store: Optional[TraceStore] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    return_report: bool = False,
    backend=None,
    deadline: Optional[float] = None,
) -> List[SimulationResult] | BatchReport:
    """Execute ``jobs``; returns results aligned with the input order.

    ``workers=None`` picks :func:`default_workers`; explicit counts are
    validated and clamped to the CPU count; ``workers=1`` runs serially
    in-process (as does any call made from inside a pool worker).  With
    ``cache`` set, cached jobs are never executed and fresh results are
    persisted.  With ``trace_store`` set, traces come from (and are saved
    to) the on-disk store instead of being synthesised per call.  Either
    way each distinct trace is acquired once per batch, and pool workers
    read it from the parent's memory, inherited by fork.

    Failure semantics (see :mod:`repro.analysis.resilience`): each job
    is retried under ``policy`` (default:
    :data:`~repro.analysis.resilience.DEFAULT_POLICY`); jobs already
    recorded in ``journal`` are skipped and fresh completions are
    journaled as they land.  If any job fails permanently, the rest of
    the batch still completes and persists before a
    :class:`~repro.analysis.resilience.JobsFailedError` (carrying the
    per-job :class:`~repro.analysis.resilience.BatchReport`) is raised.
    Pass ``return_report=True`` to receive the report instead — no
    exception, failed jobs appear as ``ok=False`` outcomes.

    ``backend`` selects the execution substrate (see
    :mod:`repro.analysis.backend`): ``None`` defers to the
    ``REPRO_BACKEND`` environment variable and then the default
    in-process pool; a name (``"pool"`` / ``"shared-fs"`` / ``"tcp"``)
    builds that backend; an
    :class:`~repro.analysis.backend.ExecutionBackend` instance is used
    as-is.  Every backend honours the same cache/journal/policy
    semantics — swapping backends never changes results, only where the
    simulations physically run.

    ``deadline`` (seconds) bounds the whole batch: once it expires no
    new job starts; in-flight jobs finish (or hit their own timeout)
    and jobs never started come back as honest ``unclaimed`` outcomes
    that a journaled re-run completes (graceful degradation, not an
    abort).
    """
    if backend is not None or os.environ.get("REPRO_BACKEND"):
        from repro.analysis.backend import resolve_backend

        backend = resolve_backend(backend)
    report = execute_batch(
        jobs,
        workers=workers,
        cache=cache,
        trace_store=trace_store,
        policy=policy,
        journal=journal,
        backend=backend,
        deadline=deadline,
    )
    if return_report:
        return report
    if report.failures:
        raise JobsFailedError(report)
    return [o.result for o in report.outcomes]
