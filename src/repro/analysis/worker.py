"""The queue worker: claim, steal, amortize, execute, publish.

:func:`drain_queue` is the body of ``repro-sim worker`` and of the
parent process's own participation in a queue sweep
(:class:`repro.analysis.backend.QueueBackend`).  One call drains a
:class:`~repro.analysis.workqueue.FileQueue` — or a
:class:`~repro.analysis.netqueue.NetQueue` speaking the same protocol
to a broker — until it is empty: claim a batch of jobs, steal from dead
peers when the unclaimed pool runs dry, run everything, publish sealed
``done/`` records, repeat.

**Batch amortization** is the perf heart of this module.  Simulation
jobs sharing a trace are far cheaper together than apart: synthesising
(or loading) the trace dominates short runs, and engine warm-up (JIT
compilation, attribute caches) repeats per fresh process.  So each
claimed batch is grouped by ``(engine, trace parameters)`` and each
group acquires its trace exactly **once**; members after the first pay
only the simulation itself.  Each job then runs through
:func:`~repro.analysis.resilience.run_attempts`, the attempt loop the
serial executor runs too.  :class:`WorkerStats` separates
first-of-group from rest-of-group wall time so ``repro-sim bench
--sweep`` can report the amortization win instead of asserting it.

Fault sites (chaos-tested, registered in :mod:`repro.common.faults`):

* ``worker-death`` fires *outside* the per-job try/except, after a
  lease is held and before its job runs — a ``raise`` spec propagates
  out of :func:`drain_queue` with leases still held (an in-process
  simulated death for tests), and an ``exit`` spec hard-kills a real
  worker process mid-lease.  Either way the queue's steal path must
  recover the work.
* ``stale-lease`` lives inside :meth:`FileQueue.heartbeat`: a ``drop``
  spec silently discards heartbeat writes, so a perfectly healthy
  worker *looks* dead to its peers and its leases get stolen — the
  duplicate execution that follows must converge bit-identically.
* ``pressure`` lives inside the optional
  :class:`~repro.common.diskio.PressureGuard` checked at the top of
  every claim round: ``enospc``/``mem-pressure`` specs make a healthy
  worker behave as if its disk or memory ran out, which must produce a
  clean drain-and-exit (``stats.stopped == "pressure"``), never a
  death mid-write.

The ``worker-death`` site key is the job token *followed by the worker
name*, so chaos plans can target either axis: ``match=<token>`` kills
every executor of one job (a poison job), ``match=<worker>`` kills one
worker incarnation wherever it is in its batch (a mid-lease death).

A background daemon thread heartbeats every quarter lease-TTL so a
legitimately long job is never mistaken for a dead owner.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.netqueue import BrokerUnreachable
from repro.analysis.resilience import (
    DEFAULT_POLICY,
    RetryPolicy,
    _group_by_trace,
    acquire_trace,
    run_attempts,
)
from repro.analysis.result_cache import result_to_dict
from repro.analysis.workqueue import _BEAT_FRACTION, Claim, FileQueue, new_worker_id
from repro.common.diskio import PressureGuard
from repro.common.faults import fault_point
from repro.trace.store import TraceStore


@dataclass
class WorkerStats:
    """One worker's ledger for a drain: throughput plus amortization split."""

    worker: str
    claimed: int = 0
    stolen: int = 0
    executed: int = 0
    ok: int = 0
    failed: int = 0
    #: Distinct (engine, trace) groups run — each paid trace acquisition once.
    groups: int = 0
    #: Jobs that reused a group-mate's trace instead of acquiring their own.
    trace_reuses: int = 0
    trace_acquire_s: float = 0.0
    #: Wall time split: first job of each group (pays warm-up) vs the rest.
    first_job_s: float = 0.0
    rest_job_s: float = 0.0
    first_jobs: int = 0
    rest_jobs: int = 0
    idle_polls: int = 0
    drain_s: float = 0.0
    #: Why the drain stopped early: ``"pressure"``, ``"deadline"``,
    #: ``"heartbeat"`` (the background heartbeat thread died),
    #: ``"disconnected"`` (a network queue's broker stayed unreachable
    #: past the retry budget), or ``None`` for a normal empty-queue (or
    #: max-jobs) exit.
    stopped: Optional[str] = None
    #: The background heartbeat thread died (exception storm or a
    #: BaseException); the drain stopped claiming rather than run on a
    #: decaying lease.
    heartbeat_crashed: bool = False
    #: Transport health (zero for filesystem queues): connections
    #: re-established, calls that needed a retry, and retried *mutating*
    #: calls — each replayed op is a live exercise of idempotency.
    reconnects: int = 0
    retried_calls: int = 0
    replayed_ops: int = 0
    #: Pressure-guard checks performed (0 when no guard was attached).
    pressure_checks: int = 0
    #: Corrupt job/done records this worker's queue instance quarantined.
    queue_quarantined: int = 0
    #: Poison jobs this worker's queue instance moved into quarantine/.
    poisoned: int = 0
    degradations: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return asdict(self)

    @property
    def amortization(self) -> Optional[float]:
        """Mean first-of-group time over mean rest-of-group time (>1 is a win)."""
        if not self.first_jobs or not self.rest_jobs or not self.rest_job_s:
            return None
        return (self.first_job_s / self.first_jobs) / (self.rest_job_s / self.rest_jobs)


class _Heartbeat(threading.Thread):
    """Daemon that beats on the worker's behalf while jobs run.

    A beat that fails is retried on the next interval; what must never
    happen is the thread dying *silently* — a worker with a dead
    heartbeat looks dead to its peers, keeps claiming anyway, and gets
    stolen from mid-job.  So the thread survives any single failure,
    trips ``crashed`` after :data:`_CRASH_AFTER` consecutive ones (a
    beat has been missed for most of a TTL by then) or on any
    BaseException, and the drain loop checks the flag before every
    claim round.
    """

    #: Consecutive failed beats before the thread declares itself dead.
    #: Three misses at TTL/4 cadence leaves one beat of margin before
    #: peers may judge the lease stale.
    _CRASH_AFTER = 3

    def __init__(self, queue: FileQueue, worker: str) -> None:
        super().__init__(daemon=True, name=f"repro-hb-{worker}")
        self._queue = queue
        self._worker = worker
        self._halt = threading.Event()
        self.crashed = False
        self.last_error: Optional[str] = None
        self._consecutive_failures = 0

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                try:
                    self._queue.heartbeat(self._worker, force=True)
                except Exception as exc:  # noqa: BLE001 - survive one bad beat
                    self._consecutive_failures += 1
                    self.last_error = repr(exc)
                    if self._consecutive_failures >= self._CRASH_AFTER:
                        self.crashed = True
                        return
                else:
                    self._consecutive_failures = 0
                self._halt.wait(self._queue.lease_ttl * _BEAT_FRACTION)
        except BaseException as exc:  # noqa: BLE001 - never die silently
            self.last_error = repr(exc)
            self.crashed = True
            raise

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def _run_claim(
    claim: Claim,
    trace,
    policy: RetryPolicy,
    worker: str,
    stats: WorkerStats,
) -> Tuple[Dict, bool]:
    """One claim through the shared attempt loop; returns (done record, ok).

    Success or exhausted failure becomes a queue ``done/`` record either
    way, so the parent sees the same attempt history a pool backend
    would have reported.  Attempts count from the lease generation: each
    owner that died holding the lease cost the job one attempt.
    """
    result, failed = run_attempts(
        claim.job, trace, policy, "queue worker", stats.degradations.append,
        prior=claim.generation,
    )
    attempts = [a.to_dict() for a in failed]
    if result is None:
        record = {"ok": False, "error": attempts[-1]["error"]}
    else:
        record = {"ok": True, "result": result_to_dict(result)}
    record.update(attempts=attempts, worker=worker)
    return record, result is not None


def _run_claims(
    queue: FileQueue,
    claims: List[Claim],
    policy: RetryPolicy,
    trace_store: Optional[TraceStore],
    worker: str,
    stats: WorkerStats,
) -> None:
    """Run a claimed batch, grouped so each distinct trace is acquired once."""
    groups = _group_by_trace(claims, lambda claim: claim.job)
    for (_, params), members in sorted(groups.items()):
        stats.groups += 1
        acquire_started = time.monotonic()
        try:
            trace = acquire_trace(params, trace_store)
        except Exception as exc:  # noqa: BLE001 - fail the group's jobs, not the worker
            for claim in members:
                queue.complete(
                    claim,
                    {
                        "ok": False,
                        "error": f"trace acquisition failed: {exc!r}",
                        "attempts": [],
                        "worker": worker,
                    },
                )
                stats.executed += 1
                stats.failed += 1
            continue
        acquire_cost = time.monotonic() - acquire_started
        stats.trace_acquire_s += acquire_cost
        stats.trace_reuses += len(members) - 1

        for position, claim in enumerate(members):
            # Deliberately OUTSIDE the per-job try/except: a worker-death
            # fault must take the whole worker down with the lease still
            # held, so the steal path (not local retry) recovers the job.
            # Key = token + worker name (see the module docstring).
            fault_point("worker-death", key=claim.token + worker, attempt=stats.executed)
            job_started = time.monotonic()
            record, ok = _run_claim(claim, trace, policy, worker, stats)
            elapsed = time.monotonic() - job_started
            queue.complete(claim, record)
            stats.executed += 1
            if ok:
                stats.ok += 1
            else:
                stats.failed += 1
            if position == 0:
                # The first job of a group carries the trace acquisition —
                # that is exactly the warm-up the rest of the group
                # amortizes away, so charge it here and nowhere else.
                stats.first_jobs += 1
                stats.first_job_s += elapsed + acquire_cost
            else:
                stats.rest_jobs += 1
                stats.rest_job_s += elapsed


def drain_queue(
    queue: FileQueue,
    worker: Optional[str] = None,
    batch: int = 8,
    policy: Optional[RetryPolicy] = None,
    trace_store: Optional[TraceStore] = None,
    poll: float = 0.2,
    exit_when_empty: bool = True,
    max_jobs: Optional[int] = None,
    guard: Optional[PressureGuard] = None,
    deadline: Optional[float] = None,
) -> WorkerStats:
    """Drain ``queue`` until it is empty (or ``max_jobs`` have run).

    The loop: claim up to ``batch`` unclaimed jobs; only when none are
    left, steal one stale lease (so a dead owner's other leases never
    ride behind a poison job); run the batch grouped by (engine, trace);
    publish done records; repeat.
    With nothing claimable but leases still live elsewhere, the worker
    idles on ``poll`` — either the owners finish or their leases go
    stale and get stolen, so a drain always terminates.

    ``exit_when_empty=False`` keeps the worker alive as a standing
    drainer (the ``repro-sim worker --keep-alive`` mode) — it must then
    be stopped externally.  ``max_jobs`` bounds total executions, for
    tests and canary workers.

    ``guard`` enables resource-pressure checks at the top of every
    claim round: when it reports pressure the worker stops claiming and
    exits cleanly (``stats.stopped = "pressure"``) with whatever it
    already published intact — no lease is held mid-write when the disk
    fills.  ``deadline`` (a ``time.monotonic()`` timestamp) likewise
    stops *claiming* once reached while letting the in-flight batch
    finish (``stats.stopped = "deadline"``); unclaimed jobs stay in the
    queue for a later resume.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1 (got {batch})")
    worker = worker or new_worker_id()
    policy = policy or DEFAULT_POLICY
    stats = WorkerStats(worker=worker)
    started = time.monotonic()
    heartbeat = _Heartbeat(queue, worker)
    try:
        queue.heartbeat(worker, force=True)
    except Exception:  # noqa: BLE001 - a net queue's broker may be down now
        pass  # the heartbeat thread keeps trying; claims surface real loss
    heartbeat.start()
    try:
        while True:
            if max_jobs is not None and stats.executed >= max_jobs:
                break
            if heartbeat.crashed:
                # Claiming with a dead heartbeat invites a steal mid-job;
                # stop cleanly with everything already published intact.
                stats.stopped = "heartbeat"
                stats.heartbeat_crashed = True
                stats.degradations.append(
                    f"heartbeat thread died ({heartbeat.last_error}); "
                    "stopped claiming to avoid running on a decaying lease"
                )
                break
            if deadline is not None and time.monotonic() >= deadline:
                stats.stopped = "deadline"
                stats.degradations.append(
                    f"deadline: stopped claiming after {time.monotonic() - started:.1f}s"
                )
                break
            if guard is not None:
                reason = guard.check()
                stats.pressure_checks = guard.checks
                if reason is not None:
                    stats.stopped = "pressure"
                    stats.degradations.append(f"pressure-exit: {reason}")
                    break
            limit = batch
            if max_jobs is not None:
                limit = min(limit, max_jobs - stats.executed)
            try:
                claims = queue.claim(worker, limit=limit)
                if not claims:
                    claims = queue.steal(worker, limit=1)
                if not claims:
                    jobs_left, leases_left = queue.outstanding()
                    if jobs_left == 0 and leases_left == 0 and exit_when_empty:
                        break
                    stats.idle_polls += 1
                    time.sleep(poll)
                    continue
                stats.claimed += sum(1 for c in claims if not c.stolen)
                stats.stolen += sum(1 for c in claims if c.stolen)
                _run_claims(queue, claims, policy, trace_store, worker, stats)
            except BrokerUnreachable as exc:
                # The queue's own retry budget is spent: stop claiming
                # and exit cleanly.  Completed work is already published
                # (or will be redelivered to us on reconnect); held
                # leases go stale and get stolen — the same recovery
                # path as a worker death, without the death.
                stats.stopped = "disconnected"
                stats.degradations.append(f"broker unreachable: {exc}")
                break
            stats.drain_s = time.monotonic() - started
            queue.write_stats(worker, stats.to_dict())
    finally:
        heartbeat.stop()
        stats.drain_s = time.monotonic() - started
        stats.queue_quarantined = queue.quarantined
        stats.poisoned = queue.poisoned
        stats.heartbeat_crashed = stats.heartbeat_crashed or heartbeat.crashed
        # Transport health: duck-typed so FileQueue (no such counters)
        # reports zeros and NetQueue reports its wire statistics.
        stats.reconnects = getattr(queue, "reconnects", 0)
        stats.retried_calls = getattr(queue, "retried_calls", 0)
        stats.replayed_ops = getattr(queue, "replayed_ops", 0)
        queue.write_stats(worker, stats.to_dict())
    return stats
