"""Fault-tolerant batch execution: retries, timeouts, graceful degradation.

:func:`execute_batch` is the engine underneath
:func:`repro.analysis.parallel.run_jobs`.  Where the original fan-out
treated the batch as one transaction — any worker exception aborted
everything and discarded every completed result — this engine treats
each job as its own unit of failure:

* **Per-job isolation** — a worker exception fails (at most) that job;
  every other result is kept, cached, and journaled.  The batch returns
  a :class:`BatchReport` of per-job :class:`JobOutcome` records instead
  of raising mid-flight.
* **Retries with exponential backoff + jitter** — a
  :class:`RetryPolicy` gives each job ``max_attempts`` tries; the
  delay between tries grows geometrically and is jittered by a
  *seeded hash* (reproducible, no RNG state crossing processes).
* **Per-job wall-clock timeouts** — every executor, pool workers
  included, enforces the deadline with ``SIGALRM`` where one can be
  armed (main thread, Unix) and by an after-the-fact monotonic check
  everywhere else.  A pool worker that stays silent past its job's
  whole budget (every remaining attempt's timeout and backoff, plus
  one more timeout of grace) is killed by the parent, which charges
  that job one ``timeout`` attempt.
* **Graceful degradation** — a host that cannot fork, a pool whose
  workers cannot start, or a pool that loses every worker finishes the
  batch serially.  Every such event is recorded in
  ``BatchReport.degradations``.
* **Crash consistency** — with a
  :class:`~repro.analysis.checkpoint.RunJournal` attached, every
  completed job is journaled (fsync'd) the moment it finishes, and
  journaled successes are never re-run — a killed batch resumes where
  it died.

The pool is a set of forked workers, each with its own pipe and at most
one job in flight, so the parent always knows which job a worker was
running.  A worker that dies *hard* (``os._exit``, segfault, OOM-kill)
closes its pipe; the parent charges that one job a ``pool-broken``
attempt, requeues it under the policy, and forks a replacement while
work remains.  No other job is charged, so a poison job exhausts its
own attempts and nobody else's.

Every executor — the serial phase, the pool workers, and the queue
worker in :mod:`repro.analysis.worker` — runs each job through
:func:`run_attempts`.  The serial phase and the queue worker group
jobs by (engine, trace) and acquire each group's trace once
(:func:`acquire_trace`); the pool's parent acquires every pending trace
before it forks, and its workers read them from the memory they
inherit.

Fault-injection points (:mod:`repro.common.faults`) are threaded
through the attempt loop so the chaos suite can prove every path above
end-to-end; forked workers inherit the plan's environment variables.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.checkpoint import RunJournal
from repro.common.faults import fault_point, hash_unit
from repro.core.simulator import SimulationResult


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock deadline."""


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a job failed.

    ``delay(attempt)`` grows as ``backoff_base * backoff_factor**(n-1)``
    capped at ``backoff_max``, plus up to ``jitter`` of itself decided
    by a seeded hash of (seed, job token, attempt) — deterministic for
    a given policy, decorrelated across jobs.
    """

    max_attempts: int = 2
    timeout: Optional[float] = None  # per-job wall-clock seconds; None = never
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.25  # fraction of the base delay
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None (got {self.timeout})")

    def delay(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before 0-based attempt number ``attempt``."""
        if attempt <= 0:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))
        return base * (1.0 + self.jitter * hash_unit(self.seed, "backoff", token, attempt))


#: The default when callers pass ``policy=None``: one retry, no timeout.
DEFAULT_POLICY = RetryPolicy()

#: Strict single-shot policy (the pre-resilience semantics, minus the
#: batch abort): no retries, no timeouts.
NO_RETRY = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# Outcome records
# ----------------------------------------------------------------------
@dataclass
class JobAttempt:
    """One try of one job and how it ended."""

    attempt: int  # 0-based
    kind: str  # "exception" | "timeout" | "pool-broken"
    error: str
    elapsed: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "error": self.error,
            "elapsed": round(self.elapsed, 4),
        }


@dataclass
class JobOutcome:
    """The final word on one job: its result or its failure history."""

    index: int
    key: str
    ok: bool = False
    result: Optional[SimulationResult] = None
    attempts: List[JobAttempt] = field(default_factory=list)
    from_cache: bool = False
    from_journal: bool = False
    #: The job was declared poison and moved into queue quarantine — it
    #: kept killing its executors, so nothing will run it again until
    #: it is resubmitted (a resume after the underlying fault is fixed).
    quarantined: bool = False
    #: The job was never claimed before a sweep deadline expired: no
    #: attempts, nothing journaled, so a resume runs it from scratch.
    unclaimed: bool = False

    @property
    def error(self) -> Optional[str]:
        return self.attempts[-1].error if self.attempts else None

    @property
    def executed(self) -> bool:
        """Whether any attempt actually ran (vs. cache/journal hits)."""
        return self.ok and not (self.from_cache or self.from_journal) or bool(self.attempts)


@dataclass
class BatchReport:
    """Everything :func:`execute_batch` learned about a batch."""

    outcomes: List[JobOutcome]
    degradations: List[str] = field(default_factory=list)
    #: Whether a sweep deadline expired before the batch finished.
    deadline_hit: bool = False
    #: Transport health from network-backed executions (empty for local
    #: backends): reconnects, retried_calls, replayed_ops,
    #: broker_restarts — filled in by the ``tcp`` backend.
    transport: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def results(self) -> List[Optional[SimulationResult]]:
        """Results aligned with the input jobs; ``None`` where a job failed."""
        return [o.result for o in self.outcomes]

    def partial_results(self) -> Dict[str, Any]:
        """An honest accounting of where every job ended up.

        ``completed``/``failed``/``quarantined``/``unclaimed`` partition
        the batch; ``by_domain`` attributes each non-completed job to
        its failure domain (the kind of its final attempt — ``timeout``,
        ``exception``, ``pool-broken`` — or the synthetic domains
        ``poisoned``/``unclaimed``).  This is what ``sweep --deadline``
        prints instead of pretending a cut-short sweep finished.
        """
        completed = failed = quarantined = unclaimed = 0
        by_domain: Dict[str, int] = {}
        for o in self.outcomes:
            if o.ok:
                completed += 1
                continue
            if o.quarantined:
                quarantined += 1
                domain = "poisoned"
            elif o.unclaimed:
                unclaimed += 1
                domain = "unclaimed"
            else:
                failed += 1
                domain = o.attempts[-1].kind if o.attempts else "exception"
            by_domain[domain] = by_domain.get(domain, 0) + 1
        return {
            "total": len(self.outcomes),
            "completed": completed,
            "failed": failed,
            "quarantined": quarantined,
            "unclaimed": unclaimed,
            "by_domain": by_domain,
            "deadline_hit": self.deadline_hit,
        }


class JobsFailedError(RuntimeError):
    """Raised by ``run_jobs`` when jobs failed permanently.

    Carries the full :class:`BatchReport` — the surviving results were
    already cached/journaled before this was raised, so nothing is lost.
    """

    def __init__(self, report: BatchReport) -> None:
        failures = report.failures

        def _describe(o: JobOutcome) -> str:
            if o.quarantined:
                return f"job[{o.index}] quarantined as a poison job"
            if o.unclaimed:
                return f"job[{o.index}] left unclaimed at the deadline"
            return f"job[{o.index}] after {len(o.attempts)} attempt(s): {o.error}"

        preview = "; ".join(_describe(o) for o in failures[:3])
        if len(failures) > 3:
            preview += f"; ... and {len(failures) - 3} more"
        partial = report.partial_results()
        extras = "".join(
            f", {partial[k]} {k}" for k in ("quarantined", "unclaimed") if partial[k]
        )
        super().__init__(
            f"{len(failures)} of {len(report.outcomes)} jobs failed permanently"
            f"{extras} ({preview})"
        )
        self.report = report


def job_token(job) -> str:
    """A human-greppable job identity used for fault matching and jitter."""
    return (
        f"{job.workload}|engine={job.engine_name}|seed={job.seed}"
        f"|n={job.n_insts}|swpf={job.software_prefetch}|"
    )


# ----------------------------------------------------------------------
# Traces and the attempt loop (shared by every executor)
# ----------------------------------------------------------------------
def _trace_params(job) -> Tuple[str, int, int, bool]:
    return (job.workload, job.n_insts, job.seed, job.software_prefetch)


def _group_by_trace(items: Sequence, job_of: Callable) -> Dict[Tuple, List]:
    """``items`` grouped by ``(engine, trace params)``, in first-seen order."""
    groups: Dict[Tuple, List] = {}
    for item in items:
        job = job_of(item)
        groups.setdefault((job.engine_name, _trace_params(job)), []).append(item)
    return groups


def acquire_trace(params: Tuple[str, int, int, bool], trace_store=None):
    """The trace for ``params``: from ``trace_store`` when given, else
    the in-process :func:`~repro.workloads.cached_trace` memo."""
    if trace_store is not None:
        return trace_store.get_or_build(*params)
    from repro.workloads import cached_trace

    return cached_trace(*params)


@contextmanager
def _serial_deadline(seconds: Optional[float]) -> Iterator[bool]:
    """Enforce a wall-clock deadline on in-process execution via SIGALRM.

    Yields whether the deadline is actually armed — only on Unix, in the
    main thread; elsewhere :func:`run_attempts` checks the budget after
    the job returns instead.
    """
    if (
        not seconds
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield False
        return

    def _expire(signum, frame):
        raise JobTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_attempts(
    job,
    trace,
    policy: RetryPolicy,
    label: str,
    degrade: Callable[[str], None],
    prior: int = 0,
) -> Tuple[Optional[SimulationResult], List[JobAttempt]]:
    """Try one job in this process until it succeeds or the policy gives up.

    Seeded backoff before every retry, the ``worker`` fault site on
    every attempt, and per-job exception isolation.  ``policy.timeout``
    is a SIGALRM deadline where one can be armed; elsewhere the job
    runs to the end and an overrun is charged after the fact, so either
    way it costs one ``timeout`` attempt (``degrade`` hears once that
    the deadline could not interrupt the job).  ``label`` names the
    executor in timeout messages; ``prior`` counts the attempts the job
    already spent elsewhere (workers or lease owners that died under it).

    Returns the result (``None`` once the attempts are spent) and the
    failed attempts, oldest first.
    """
    from repro.analysis import parallel as _parallel

    token = job_token(job)
    failed: List[JobAttempt] = []
    warned = False
    while True:
        attempt = prior + len(failed)
        if attempt:
            time.sleep(policy.delay(attempt, token))
        started = time.monotonic()
        try:
            with _serial_deadline(policy.timeout) as armed:
                if policy.timeout and not armed and not warned:
                    warned = True
                    degrade(
                        f"timeout not enforceable for {token} on this platform; "
                        "falling back to a post-hoc monotonic check"
                    )
                fault_point("worker", key=token, attempt=attempt)
                result = _parallel.execute_job(job, trace=trace)
            if policy.timeout and not armed and time.monotonic() - started > policy.timeout:
                # The completed result is discarded: the job is charged
                # what an armed deadline would have reported.
                raise JobTimeout()
        except JobTimeout:
            failed.append(JobAttempt(
                attempt, "timeout", f"exceeded {policy.timeout}s ({label})",
                time.monotonic() - started,
            ))
        except Exception as exc:  # noqa: BLE001 - per-job isolation is the point
            failed.append(JobAttempt(attempt, "exception", repr(exc), time.monotonic() - started))
        else:
            return result, failed
        if attempt + 1 >= policy.max_attempts:
            return None, failed


def _pool_worker(conn, parent_end, jobs, traces, policy: RetryPolicy) -> None:
    """A forked pool worker: run each job the parent sends, reply on ``conn``.

    A message is ``(index, prior_attempts)``; the reply is ``(result,
    failed_attempts, degradation_events)``.  ``jobs``, ``traces`` and
    ``policy`` arrive by fork, never pickled.  The parent kills the
    worker when the batch ends; closing the inherited ``parent_end``
    lets EOF end the loop instead if the parent dies first.
    """
    from repro.analysis import parallel as _parallel

    parent_end.close()
    _parallel._mark_pool_worker()
    while True:
        try:
            index, prior = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        job, events = jobs[index], []
        result, failed = run_attempts(
            job, traces[_trace_params(job)], policy, "pool worker", events.append, prior=prior
        )
        conn.send((result, failed, events))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _Batch:
    """Mutable state of one execute_batch call (shared by both phases)."""

    def __init__(self, jobs, policy, cache, trace_store, journal, report,
                 deadline_at: Optional[float] = None):
        self.jobs = jobs
        self.policy = policy
        self.cache = cache
        self.trace_store = trace_store
        self.journal = journal
        self.report = report
        #: Absolute ``time.monotonic()`` sweep deadline, or ``None``.
        self.deadline_at = deadline_at

    def outcome(self, index: int) -> JobOutcome:
        return self.report.outcomes[index]

    def past_deadline(self) -> bool:
        if self.deadline_at is None:
            return False
        if time.monotonic() < self.deadline_at:
            return False
        self.report.deadline_hit = True
        return True

    def mark_unclaimed(self, index: int) -> None:
        """A job the deadline cut off before it was ever claimed.

        Deliberately *not* journaled: with no attempts there is nothing
        to record, and an absent journal entry is exactly what makes a
        later ``--resume`` run the job from scratch.
        """
        o = self.outcome(index)
        o.ok = False
        o.unclaimed = True

    def complete(self, index: int, result: SimulationResult) -> None:
        o = self.outcome(index)
        o.ok, o.result = True, result
        if self.cache is not None:
            self.cache.put(o.key, result)
        if self.journal is not None:
            self.journal.record_success(o.key, result)

    def record_failure(self, index: int, kind: str, error: str, elapsed: float) -> JobAttempt:
        o = self.outcome(index)
        attempt = JobAttempt(len(o.attempts), kind, error, elapsed)
        o.attempts.append(attempt)
        return attempt

    def give_up(self, index: int) -> None:
        o = self.outcome(index)
        o.ok = False
        if self.journal is not None:
            self.journal.record_failure(
                o.key, o.error or "failed", [a.to_dict() for a in o.attempts]
            )

    def attempts_left(self, index: int) -> bool:
        return len(self.outcome(index).attempts) < self.policy.max_attempts

    def degrade(self, event: str) -> None:
        self.report.degradations.append(event)


def _serial_phase(batch: _Batch, pending: Sequence[int]) -> None:
    """Run ``pending`` in this process: the queue worker's loop without the queue.

    Groups keep the order in which they first appear, so a trace-major
    grid still runs in submission order.  A trace that cannot be
    acquired fails its group's jobs, one ``exception`` attempt each.
    """
    cut_off = 0
    for (_, params), members in _group_by_trace(pending, batch.jobs.__getitem__).items():
        trace = error = None
        for index in members:
            if batch.past_deadline():
                batch.mark_unclaimed(index)
                cut_off += 1
                continue
            if trace is None and error is None:
                try:
                    trace = acquire_trace(params, batch.trace_store)
                except Exception as exc:  # noqa: BLE001 - fail the group, not the batch
                    error = f"trace acquisition failed: {exc!r}"
            if error is not None:
                batch.record_failure(index, "exception", error, 0.0)
                batch.give_up(index)
                continue
            result, failed = run_attempts(
                batch.jobs[index], trace, batch.policy, "serial",
                lambda event: batch.degrade("serial: " + event),
                prior=len(batch.outcome(index).attempts),
            )
            batch.outcome(index).attempts.extend(failed)
            if result is None:
                batch.give_up(index)
            else:
                batch.complete(index, result)
    if cut_off:
        batch.degrade(f"deadline: {cut_off} job(s) left unclaimed (serial)")


def _pool_phase(batch: _Batch, pending: List[int], workers: int) -> None:
    """Run ``pending`` on forked workers, one job in flight per worker.

    Each worker answers on its own pipe, so EOF names the one job a dead
    worker was running: that job alone is charged a ``pool-broken``
    attempt and requeued, and a replacement is forked while work
    remains.  A worker that outlives its job's budget is killed and the
    job charged a ``timeout`` attempt the same way.
    """
    policy = batch.policy
    # Every distinct trace is acquired once, before the first fork.
    traces: Dict[Tuple, Any] = {}
    queue: Deque[int] = deque()
    for (_, params), members in _group_by_trace(pending, batch.jobs.__getitem__).items():
        try:
            if params not in traces:
                traces[params] = acquire_trace(params, batch.trace_store)
        except Exception as exc:  # noqa: BLE001 - fail its jobs, not the batch
            for index in members:
                batch.record_failure(index, "exception", f"trace acquisition failed: {exc!r}", 0.0)
                batch.give_up(index)
            continue
        queue.extend(members)
    if not queue:
        return

    live: Dict = {}  # conn -> worker process
    idle: List = []  # conns of workers waiting for a job
    busy: Dict = {}  # conn -> (index, sent_at, kill_at or None)

    def fork() -> None:
        context = get_context("fork")  # the workers inherit the traces
        conn, child = context.Pipe()
        process = context.Process(
            target=_pool_worker, args=(child, conn, batch.jobs, traces, policy)
        )
        try:
            process.start()
        finally:
            child.close()  # the worker holds the only copy, so its death is EOF here
        live[conn] = process
        idle.append(conn)

    def kill_at(index: int, prior: int) -> Optional[float]:
        """When the parent gives up on a silent worker: every remaining
        attempt's timeout and backoff, plus one more timeout of grace."""
        if policy.timeout is None:
            return None
        token = job_token(batch.jobs[index])
        remaining = range(prior, policy.max_attempts)
        return time.monotonic() + policy.timeout * (len(remaining) + 1) + sum(
            policy.delay(attempt, token) for attempt in remaining
        )

    def retire(conn) -> Optional[int]:
        """Reap a worker that is gone; returns its exit code."""
        process = live.pop(conn)
        process.join()
        conn.close()
        return process.exitcode

    def charge(index: int, started: float, kind: str, error: str, event: str) -> None:
        """Charge a lost worker's job one attempt, requeue it under the
        policy, and fork a replacement while work remains."""
        batch.record_failure(index, kind, error, time.monotonic() - started)
        # Past the sweep deadline, the job gets no fresh attempts.
        if batch.attempts_left(index) and not batch.past_deadline():
            queue.append(index)
        else:
            batch.give_up(index)
        if not queue:
            return
        event = f"{job_token(batch.jobs[index])} {event}"
        try:
            fork()
        except OSError as exc:
            batch.degrade(f"pool-worker-lost: {event}; replacement failed ({exc!r})")
        else:
            batch.degrade(f"pool-worker-replaced: {event}")

    try:
        try:
            for _ in range(min(workers, len(queue))):
                fork()
        except (OSError, ValueError) as exc:
            if not live:
                batch.degrade(f"serial-fallback: process pool unavailable ({exc!r})")
                _serial_phase(batch, list(queue))
                return

        while queue or busy:
            while queue and idle:
                if batch.past_deadline():
                    # Stop sending work.  In-flight jobs finish; queued
                    # jobs that already burned attempts are failed honestly.
                    cut_off = 0
                    for index in queue:
                        if batch.outcome(index).attempts:
                            batch.give_up(index)
                        else:
                            batch.mark_unclaimed(index)
                            cut_off += 1
                    queue.clear()
                    batch.degrade(f"deadline: {cut_off} job(s) left unclaimed (pool)")
                    break
                conn, index = idle.pop(), queue.popleft()
                prior = len(batch.outcome(index).attempts)
                try:
                    conn.send((index, prior))
                except OSError:
                    # Died while idle: it held no job, so nothing is
                    # charged, and it is not replaced, so this cannot loop.
                    queue.appendleft(index)
                    retire(conn)
                    continue
                busy[conn] = (index, time.monotonic(), kill_at(index, prior))

            if not busy:
                if queue:
                    batch.degrade("serial-fallback: every pool worker lost")
                    _serial_phase(batch, list(queue))
                return

            kill_times = [when for _, _, when in busy.values() if when is not None]
            timeout = max(0.0, min(kill_times) - time.monotonic()) if kill_times else None
            for conn in wait(list(busy), timeout):
                index, started, _ = busy.pop(conn)
                try:
                    result, failed, events = conn.recv()
                except (EOFError, OSError):  # the worker died
                    code = retire(conn)
                    charge(
                        index, started, "pool-broken", f"pool worker died (exit {code})",
                        f"ended its worker (exit {code})",
                    )
                    continue
                idle.append(conn)
                for event in events:
                    batch.degrade("pool worker: " + event)
                batch.outcome(index).attempts.extend(failed)
                if result is None:
                    batch.give_up(index)
                else:
                    batch.complete(index, result)

            now = time.monotonic()
            for conn, (index, started, when) in list(busy.items()):
                if when is not None and now >= when:
                    # A hang SIGALRM could not interrupt.
                    del busy[conn]
                    live[conn].kill()
                    code = retire(conn)
                    charge(
                        index, started, "timeout", f"exceeded {policy.timeout}s wall clock",
                        f"hung its worker past the job's budget (exit {code})",
                    )
    finally:
        for conn in list(live):  # idle unless the loop itself raised
            live[conn].kill()
            retire(conn)


def execute_batch(
    jobs: Sequence,
    workers: Optional[int] = None,
    cache=None,
    trace_store=None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    backend=None,
    deadline: Optional[float] = None,
) -> BatchReport:
    """Run a batch under a retry policy; never raises for job failures.

    Jobs found in the journal (successes only) or the result cache are
    served without execution; everything else runs under the policy's
    retry/timeout/degradation rules.  Returns a :class:`BatchReport`
    whose ``outcomes`` align with ``jobs``.

    ``backend`` (an :class:`~repro.analysis.backend.ExecutionBackend`
    instance, or ``None`` for the built-in
    :class:`~repro.analysis.backend.PoolBackend`) owns the execution
    phase only: the journal/cache prefilter, outcome records,
    and failure semantics above are identical for every backend.

    ``deadline`` (seconds from now) bounds the whole batch: once it
    expires no new job is started — in-flight work finishes or times
    out, everything never claimed is marked ``unclaimed`` (not
    journaled, so a resume completes it), and
    ``BatchReport.partial_results()`` accounts for every job honestly.
    """
    from repro.analysis import parallel as _parallel

    if policy is None:
        policy = DEFAULT_POLICY
    if deadline is not None and deadline < 0:
        raise ValueError(f"deadline must be >= 0 seconds (got {deadline})")
    deadline_at = time.monotonic() + deadline if deadline is not None else None
    if workers is None:
        workers = _parallel.default_workers()
    else:
        workers = _parallel._validated(workers, "workers")
    if os.environ.get(_parallel._POOL_WORKER_ENV):
        workers = 1  # already inside a pool worker: no nested pools

    outcomes = [JobOutcome(index=i, key=job.key()) for i, job in enumerate(jobs)]
    report = BatchReport(outcomes=outcomes)
    batch = _Batch(jobs, policy, cache, trace_store, journal, report,
                   deadline_at=deadline_at)

    journaled = journal.completed() if journal is not None else {}
    pending: List[int] = []
    for index, job in enumerate(jobs):
        o = outcomes[index]
        done = journaled.get(o.key)
        if done is not None:
            o.ok, o.result, o.from_journal = True, done, True
            continue
        if cache is not None:
            cached = cache.get(o.key)
            if cached is not None:
                o.ok, o.result, o.from_cache = True, cached, True
                if journal is not None:
                    journal.record_success(o.key, cached)
                continue
        pending.append(index)

    if not pending:
        return report
    if backend is None:
        from repro.analysis.backend import PoolBackend

        backend = PoolBackend()
    backend.execute(batch, pending, workers)
    return report
