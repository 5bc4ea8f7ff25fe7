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
* **Per-job wall-clock timeouts** — a hung worker is detected by
  deadline, the pool's processes are killed, a fresh pool takes over,
  and the hung job is retried (or failed) under the same policy.
  In-flight innocents are resubmitted without charging them an attempt.
  In-process execution enforces the same deadline with ``SIGALRM``
  where available (main thread, Unix) and by an after-the-fact
  monotonic check everywhere else.
* **Graceful degradation** — pool → fresh pool → serial: a pool that
  cannot start runs the batch serially; a pool that keeps breaking
  (more than ``max_pool_restarts`` replacements) finishes serially.
  Every such event is recorded in ``BatchReport.degradations``.
* **Crash consistency** — with a
  :class:`~repro.analysis.checkpoint.RunJournal` attached, every
  completed job is journaled (fsync'd) the moment it finishes, and
  journaled successes are never re-run — a killed batch resumes where
  it died.

A worker that dies *hard* (``os._exit``, segfault, OOM-kill) breaks a
``ProcessPoolExecutor`` for every in-flight future at once, and the
executor cannot say which job was responsible.  The engine charges each
in-flight job one ``pool-broken`` attempt (bounded collateral: at most
``workers`` jobs are in flight), replaces the pool, and *quarantines*
the chargees: a suspect is retried with nothing else in flight, so a
repeat breakage (or hang) implicates only the poison job — innocents
are never charged a second collateral attempt.

Every in-process executor — the serial phase here and the queue worker
in :mod:`repro.analysis.worker` — runs the same grouped loop: jobs are
grouped by (engine, trace), each group's trace is acquired once
(:func:`acquire_trace`), and each job goes through
:func:`run_attempts`.  Pool workers run no loop of their own: the parent
acquires every pending trace before it forks the pool, and the workers
read them from the memory they inherit (:data:`_POOL_TRACES`).

Fault-injection points (:mod:`repro.common.faults`) are threaded
through the attempt loop and the pool worker entry so the chaos suite
can prove every path above end-to-end; forked workers inherit the
plan's environment variables.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.checkpoint import RunJournal
from repro.common.faults import fault_point, hash_unit
from repro.core.simulator import SimulationResult

#: Poll granularity of the scheduler loop (seconds).  Small enough that
#: a timeout or backoff expiry is noticed promptly, large enough that an
#: idle wait costs nothing measurable next to a simulation.
_TICK = 0.05


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
    max_pool_restarts: int = 2  # fresh pools before degrading to serial

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
    already spent elsewhere (a pool that broke under it).

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


#: Traces the parent acquired for the pool it is about to fork, keyed by
#: trace params.  Forked workers inherit the filled dict, so no worker
#: builds or loads a trace; :func:`_pool_phase` clears it afterwards.
_POOL_TRACES: Dict[Tuple, Any] = {}


def _worker_run(job, attempt: int):
    """What a pool worker runs: the fault point, then the job on its inherited trace."""
    from repro.analysis import parallel as _parallel

    fault_point("worker", key=job_token(job), attempt=attempt)
    return _parallel.execute_job(job, trace=_POOL_TRACES.get(_trace_params(job)))


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


def _kill_pool(pool) -> None:
    """Tear a pool down *now*, hung workers included.

    ``shutdown`` alone would wait on a worker stuck in a 30-second hang;
    terminating the worker processes first (via the executor's process
    table — a private but long-stable CPython attribute) makes teardown
    prompt.  Everything is best-effort: a pool we fail to kill is
    abandoned to ``shutdown(wait=False)``.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - already-dead/foreign process
            pass
    deadline = time.monotonic() + 1.0
    for proc in list(processes.values()):
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
        except Exception:  # noqa: BLE001
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001
        pass
    try:
        # A killed pool's management thread has already closed its wakeup
        # pipe; Python 3.11's interpreter-exit hook would still try to
        # write to it and print "Exception ignored ... Bad file
        # descriptor".  Deregistering the dead thread silences that.
        from concurrent.futures import process as _cf_process

        thread = getattr(pool, "_executor_manager_thread", None)
        if thread is not None:
            _cf_process._threads_wakeups.pop(thread, None)
    except Exception:  # noqa: BLE001
        pass


def _pool_phase(batch: _Batch, pending: List[int], workers: int) -> None:
    """The parallel scheduler: bounded in-flight submission, deadlines, ladder."""
    from repro.analysis import parallel as _parallel

    policy = batch.policy
    width = min(workers, len(pending))
    pool = None
    restarts = 0

    ready: Deque[int] = deque()
    waiting: List[Tuple[float, int]] = []  # (eligible_at, index) backoff queue
    inflight: Dict = {}  # future -> (index, started_at)
    #: Jobs charged a pool-broken or timeout attempt.  A suspect is
    #: resubmitted *alone* (nothing else in flight), so a repeat breakage
    #: or hang implicates only it — innocents pay at most one collateral
    #: attempt per poison job, never a second.
    suspects: set = set()

    def fresh_pool():
        # Workers read their traces from the parent's _POOL_TRACES, so
        # the pool must fork.  Python 3.14 stops making fork the Linux
        # default; a host without fork raises ValueError here.
        return _parallel.ProcessPoolExecutor(
            max_workers=width,
            initializer=_parallel._mark_pool_worker,
            mp_context=multiprocessing.get_context("fork"),
        )

    def remaining_indices() -> List[int]:
        out = [i for _, i in sorted(waiting)] + list(ready)
        return sorted(set(out) | {i for i, _ in inflight.values()})

    def requeue_or_fail(index: int) -> None:
        # Past the sweep deadline, an in-flight job gets to *finish or
        # time out* — it does not get fresh attempts.
        if batch.attempts_left(index) and not batch.past_deadline():
            attempt = len(batch.outcome(index).attempts)
            waiting.append(
                (time.monotonic() + policy.delay(attempt, job_token(batch.jobs[index])), index)
            )
        else:
            batch.give_up(index)

    def restart_or_serial(event: str) -> bool:
        """Kill + replace the pool.  ``False`` means the ladder's last
        rung was reached and the remainder of the batch already finished
        serially — the caller must return."""
        nonlocal pool, restarts
        _kill_pool(pool)
        restarts += 1
        if restarts > policy.max_pool_restarts:
            batch.degrade(f"serial-fallback: {event}; pool restart budget spent")
            _serial_phase(batch, remaining_indices())
            return False
        batch.degrade(event + f" (restart {restarts})")
        try:
            pool = fresh_pool()
            return True
        except (OSError, RuntimeError, ValueError) as exc:
            batch.degrade(f"serial-fallback: pool restart failed ({exc!r})")
            _serial_phase(batch, remaining_indices())
            return False

    def charge_inflight_broken() -> None:
        """Every in-flight sibling dies with the pool; each is charged
        one ``pool-broken`` attempt (collateral bounded by pool width)."""
        for index, started in list(inflight.values()):
            batch.record_failure(
                index, "pool-broken", "process pool broken while in flight",
                time.monotonic() - started,
            )
            suspects.add(index)
            requeue_or_fail(index)
        inflight.clear()

    try:
        # Every distinct trace is acquired once, before the first fork.
        errors: Dict[Tuple, str] = {}
        for index in pending:
            params = _trace_params(batch.jobs[index])
            if params not in _POOL_TRACES and params not in errors:
                try:
                    _POOL_TRACES[params] = acquire_trace(params, batch.trace_store)
                except Exception as exc:  # noqa: BLE001 - fail its jobs, not the batch
                    errors[params] = f"trace acquisition failed: {exc!r}"
            if params in errors:
                batch.record_failure(index, "exception", errors[params], 0.0)
                batch.give_up(index)
            else:
                ready.append(index)
        try:
            pool = fresh_pool()
        except (OSError, RuntimeError, ValueError) as exc:
            batch.degrade(f"serial-fallback: process pool unavailable ({exc!r})")
            _serial_phase(batch, list(ready))
            return

        while ready or waiting or inflight:
            now = time.monotonic()

            # Sweep deadline: stop launching work.  Whatever is in
            # flight finishes (or hits the per-job timeout sweep below);
            # everything still queued is marked unclaimed — except jobs
            # that already burned attempts, which are failed honestly.
            if (ready or waiting) and batch.past_deadline():
                cut_off = 0
                for index in [i for _, i in waiting] + list(ready):
                    if batch.outcome(index).attempts:
                        batch.give_up(index)
                    else:
                        batch.mark_unclaimed(index)
                        cut_off += 1
                waiting.clear()
                ready.clear()
                batch.degrade(f"deadline: {cut_off} job(s) left unclaimed (pool)")
                continue

            # Backoff expiry: move eligible jobs back onto the ready queue.
            if waiting:
                due = [w for w in waiting if w[0] <= now]
                waiting[:] = [w for w in waiting if w[0] > now]
                for _, index in sorted(due):
                    ready.append(index)

            # Top up the pool, never exceeding its width (so every
            # submitted future starts promptly and deadlines are honest).
            # Non-suspects are preferred; a suspect only launches into an
            # otherwise-empty pool (see ``suspects`` above).
            broken = False
            while ready and len(inflight) < width:
                if any(i in suspects for i, _ in inflight.values()):
                    break  # a quarantined retry is in flight alone
                pick = next((c for c in ready if c not in suspects), None)
                if pick is not None:
                    ready.remove(pick)
                    index = pick
                elif not inflight:
                    index = ready.popleft()
                else:
                    break  # only suspects left: wait for the pool to drain
                attempt = len(batch.outcome(index).attempts)
                try:
                    future = pool.submit(_worker_run, batch.jobs[index], attempt)
                except (BrokenExecutor, RuntimeError):
                    # The pool died between ticks; this job is innocent.
                    ready.appendleft(index)
                    broken = True
                    break
                inflight[future] = (index, time.monotonic())

            if broken:
                charge_inflight_broken()
                if not restart_or_serial("pool-restarted: pool broken at submission"):
                    return
                continue

            if not inflight:
                if waiting:
                    time.sleep(min(_TICK, max(0.0, min(w[0] for w in waiting) - now)))
                continue

            done, _ = wait(set(inflight), timeout=_TICK, return_when=FIRST_COMPLETED)

            for future in done:
                index, started = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenExecutor:
                    broken = True
                    batch.record_failure(
                        index, "pool-broken", "process pool broken under this job",
                        time.monotonic() - started,
                    )
                    suspects.add(index)
                    requeue_or_fail(index)
                except Exception as exc:  # noqa: BLE001 - per-job isolation
                    batch.record_failure(
                        index, "exception", repr(exc), time.monotonic() - started
                    )
                    requeue_or_fail(index)
                else:
                    batch.complete(index, result)

            if broken:
                charge_inflight_broken()
                if not restart_or_serial("pool-restarted: broken process pool"):
                    return
                continue

            # Deadline sweep: a hung worker cannot be cancelled through
            # the executor, so the whole pool is killed and replaced.
            if policy.timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    (future, index, started)
                    for future, (index, started) in inflight.items()
                    if now - started > policy.timeout
                ]
                if expired:
                    for _, index, started in expired:
                        batch.record_failure(
                            index, "timeout",
                            f"exceeded {policy.timeout}s wall clock", now - started,
                        )
                        suspects.add(index)
                        requeue_or_fail(index)
                    expired_keys = {future for future, _, _ in expired}
                    # Innocent in-flight jobs lose their progress but not
                    # an attempt: resubmitted after the pool is replaced.
                    collateral = 0
                    for future, (index, _) in inflight.items():
                        if future not in expired_keys:
                            ready.append(index)
                            collateral += 1
                    inflight.clear()
                    timed_out = ", ".join(job_token(batch.jobs[i]) for _, i, _ in expired)
                    if not restart_or_serial(
                        f"pool-replaced: killed hung worker(s) for {timed_out}, "
                        f"{collateral} innocent job(s) resubmitted"
                    ):
                        return
    finally:
        _POOL_TRACES.clear()
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - pool already dead
                pass


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
