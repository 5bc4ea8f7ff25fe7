"""Pluggable execution backends for batch simulation runs.

:func:`repro.analysis.resilience.execute_batch` owns everything that
must be true of *every* batch — the journal/cache prefilter, retry
policy, per-job outcome records, crash-consistent journaling.  What it
does **not** own is where the simulations physically run.  That is an
:class:`ExecutionBackend`:

* :class:`PoolBackend` (the default, ``"pool"``) — forked local
  workers, one pipe and one job in flight each, reading fork-inherited
  traces; a dead or hung worker charges only its own job, and a host
  that cannot fork runs the batch serially.
* :class:`QueueBackend` — a work queue drainable by any number of
  ``repro-sim worker`` processes.  The submitting process publishes the
  jobs, optionally spawns local workers, *participates in the drain
  itself* (so a sweep completes even if every spawned worker dies —
  stale leases get stolen), then folds the sealed done records back
  into the batch's outcomes, cache, and journal.  Its two backend
  names differ only in the queue handle each drain opens:

  - ``"shared-fs"`` — a directory queue
    (:mod:`repro.analysis.workqueue`) on any host that can see it;
  - ``"tcp"`` — the same queue protocol over a length-prefixed JSON
    TCP connection to ``repro-sim broker``
    (:mod:`repro.analysis.netqueue`), for workers that share no
    filesystem with the submitter.  Retries with capped backoff,
    per-op idempotency, and honest ``unclaimed`` outcomes on broker
    loss keep the bit-identical-resume guarantee across resets,
    stalls, and partitions.

The contract every backend must honour (and the chaos suite enforces):
**swapping backends never changes results** — jobs are pure functions
of their content-hashed keys, so the same sweep through ``pool``,
``shared-fs``, or plain serial execution is bit-identical.  Backends
differ only in throughput, fault envelope, and where the CPUs are.

Selection follows one rule: flag, then environment, then default.
``run_jobs(..., backend=...)`` accepts an instance, one of the three
names above, or ``None``.  The name is that argument (``repro-sim
sweep --backend``), else ``REPRO_BACKEND``; with neither, the built-in
pool path runs with zero new overhead.  Each queue setting is its
sweep flag, else its ``REPRO_*`` variable, else its default, and
:func:`queue_backend` is the only place that builds a queue backend.
A backend of your own runs by passing its instance — see
``docs/extending.md`` for the checklist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
import uuid
from abc import ABC, abstractmethod
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.analysis.workqueue import FileQueue
from repro.common.diskio import env_num

BACKEND_ENV = "REPRO_BACKEND"
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"
QUEUE_WORKERS_ENV = "REPRO_QUEUE_WORKERS"
LEASE_TTL_ENV = "REPRO_LEASE_TTL"
QUEUE_BATCH_ENV = "REPRO_QUEUE_BATCH"


class ExecutionBackend(ABC):
    """Where a batch's pending jobs physically execute.

    ``execute`` receives the resilience engine's mutable batch state
    (``repro.analysis.resilience._Batch``) and the indices still
    pending after the journal/cache prefilter, one per key.  It must
    drive every pending index to a terminal state —
    ``batch.complete(i, result)`` on success,
    ``batch.record_failure(...)`` + ``batch.give_up(i)`` on permanent
    failure — and may call ``batch.degrade(event)`` to report
    degradations.  It must not touch non-pending outcomes.
    """

    #: Backend name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def execute(self, batch, pending: Sequence[int], workers: int) -> None:
        """Run ``batch.jobs[i]`` for every ``i`` in ``pending``."""


class PoolBackend(ExecutionBackend):
    """The built-in local fork pool, or serial execution for one job or worker."""

    name = "pool"

    def execute(self, batch, pending: Sequence[int], workers: int) -> None:
        from repro.analysis.resilience import _pool_phase, _serial_phase

        if workers <= 1 or len(pending) == 1:
            _serial_phase(batch, pending)
        else:
            _pool_phase(batch, list(pending), workers)


class QueueBackend(ExecutionBackend):
    """Drain a batch through a work queue: a shared directory or a broker.

    The submitting process opens the queue, publishes the jobs,
    optionally spawns local ``repro-sim worker`` processes,
    *participates in the drain itself* (so a sweep completes even if
    every spawned worker dies — stale leases get stolen), then folds the
    queue's sealed done records back into the batch's outcomes, cache,
    and journal.  The transport is only the queue handle opened at the
    start of each :meth:`execute`: a
    :class:`~repro.analysis.workqueue.FileQueue` on ``queue_dir``
    (backend name ``shared-fs``), or a
    :class:`~repro.analysis.netqueue.NetQueue` connected to ``broker``
    (``tcp``), for workers that share no filesystem with the submitter.

    Parameters
    ----------
    queue_dir:
        Queue root.  ``None`` creates a throwaway directory (removed
        after the drain); pointing several processes — or several
        *sweeps*, for resume — at the same directory is the whole
        point.  An existing queue's ``done/`` records are honoured, so
        re-running a sweep against its old queue dir only executes the
        missing jobs.
    spawn:
        Local ``repro-sim worker`` subprocesses to launch for the
        drain.  ``None`` spawns ``workers - 1`` (the submitting process
        is itself the remaining drainer).  ``0`` spawns none — external
        workers (other hosts, or a test harness) are expected, but the
        parent still drains, so progress never depends on them.
    lease_ttl:
        Seconds of heartbeat silence before a worker's leases become
        stealable.  Directory queues only: a broker's queue keeps the
        TTL the broker was started with.
    batch:
        Jobs claimed per worker per round — the amortization knob:
        larger batches give each worker more group-mates sharing a
        trace acquisition (see :mod:`repro.analysis.worker`).
    poison_threshold:
        Maximum lease generation allowed to execute before a job is
        quarantined as poison (default: the queue's own default; see
        :mod:`repro.analysis.workqueue`).
    deadline:
        Global wall-clock budget in seconds for the drain.  Workers
        stop *claiming* at the deadline (in-flight jobs finish or time
        out); jobs never claimed come back as honest ``unclaimed``
        partial-results outcomes that a later ``--resume`` completes.
        A deadline already set on the batch (``sweep --deadline``)
        takes precedence.
    supervise:
        Run the drain under a :class:`~repro.analysis.supervisor.FleetSupervisor`
        instead of the parent participating: the parent only monitors,
        restarts crashed/pressure-exited workers with backoff, and
        quarantines poison jobs it observes from outside.  Requires at
        least one spawned worker (forced up to 1 if needed).
    broker:
        ``HOST:PORT`` of a ``repro-sim broker`` to drain instead of a
        directory.  The queue directory, supervision and the poison
        threshold then belong to the broker process and are refused
        here.  Client calls retry under ``retry`` with a per-call
        ``call_timeout``; a broker unreachable past that budget turns
        the drain into honest ``unclaimed`` outcomes (never journaled),
        so ``sweep --resume`` against a restarted broker completes
        exactly the missing work.

    After ``execute`` returns, ``last_counts`` / ``last_parent_stats``
    / ``last_supervisor`` hold the drain's telemetry: queue counts, the
    parent's :class:`~repro.analysis.worker.WorkerStats` ledger and the
    supervisor's report.  A broker drain also fills ``last_transport``
    (and ``batch.report.transport``) with its wire-health counters.
    """

    def __init__(
        self,
        queue_dir: Optional[os.PathLike | str] = None,
        spawn: Optional[int] = None,
        lease_ttl: float = 30.0,
        batch: int = 8,
        poll: float = 0.1,
        poison_threshold: Optional[int] = None,
        deadline: Optional[float] = None,
        supervise: bool = False,
        max_restarts: int = 10,
        broker: Optional[str] = None,
        retry=None,
        call_timeout: Optional[float] = None,
    ) -> None:
        if spawn is not None and spawn < 0:
            raise ValueError(f"spawn must be >= 0 (got {spawn})")
        if batch < 1:
            raise ValueError(f"batch must be >= 1 (got {batch})")
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds (got {deadline})")
        if broker is not None:
            if queue_dir or supervise or poison_threshold is not None:
                raise ValueError(
                    "--queue-dir/--supervised/--poison-threshold belong to the "
                    "broker process, not a tcp sweep (start `repro-sim broker` "
                    "with them instead)"
                )
            from repro.analysis.netqueue import parse_broker_spec

            parse_broker_spec(broker)  # a malformed HOST:PORT fails before any submit
        #: Backend name, and the prefix of every degradation it reports.
        self.name = "shared-fs" if broker is None else "tcp"
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.spawn = spawn
        self.lease_ttl = lease_ttl
        self.batch = batch
        self.poll = poll
        self.poison_threshold = poison_threshold
        self.deadline = deadline
        self.supervise = supervise
        self.max_restarts = max_restarts
        self.broker = broker
        self.retry = retry
        self.call_timeout = call_timeout
        self.last_counts: Dict = {}
        self.last_parent_stats: Dict = {}
        self.last_supervisor: Dict = {}
        self.last_transport: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _open_queue(self, cleanup: ExitStack):
        """This drain's queue handle; ``cleanup`` releases what it opened."""
        if self.broker is not None:
            from repro.analysis.netqueue import NetQueue, parse_broker_spec

            queue = NetQueue(*parse_broker_spec(self.broker),
                             retry=self.retry, call_timeout=self.call_timeout)
            cleanup.callback(queue.close)
            # Fail fast and actionably: an unreachable or misconfigured
            # broker surfaces here, before anything is submitted or spawned.
            queue.hello()
            return queue
        root = self.queue_dir
        if root is None:
            root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
            cleanup.callback(shutil.rmtree, root, ignore_errors=True)
        return FileQueue(root, lease_ttl=self.lease_ttl, poison_threshold=self.poison_threshold)

    def _spawn_worker(self, queue, index: int, batch,
                      deadline_at: Optional[float] = None,
                      logs_dir: Optional[Path] = None):
        """Launch one ``repro-sim worker`` subprocess against the queue.

        Best-effort by design: a host that cannot spawn (sandbox, fork
        limits) degrades to the parent draining alone.  Workers exit
        when the queue drains.  A directory queue's workers log to its
        ``logs/`` directory; a broker drain's workers log to ``logs_dir``.
        """
        from repro.analysis.supervisor import spawn_worker

        name = f"spawn{index}-{uuid.uuid4().hex[:6]}"
        deadline_s = None
        if deadline_at is not None:
            deadline_s = max(0.0, deadline_at - time.monotonic())
        store = getattr(batch, "trace_store", None)
        return spawn_worker(
            queue,
            name,
            batch=self.batch,
            poll=self.poll,
            retries=max(0, batch.policy.max_attempts - 1),
            timeout=batch.policy.timeout,
            deadline_s=deadline_s,
            trace_store_dir=store.directory if store is not None else None,
            broker=self.broker,
            logs_dir=logs_dir,
        )

    @staticmethod
    def _reap(procs) -> None:
        for proc, log in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            finally:
                log.close()

    def _apply(self, batch, index: int, record: Dict) -> None:
        """Fold one sealed done record into its job's outcome."""
        from repro.analysis.result_cache import result_from_dict

        result = None
        if record.get("ok"):
            try:
                result = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError):
                batch.record_failure(index, "exception", "corrupt done record payload", 0.0)
                batch.give_up(index)
                return
            # Replay failed attempts that preceded the success, so the
            # outcome's history matches what a pool run would report.
            attempts = record.get("attempts") or []
        else:
            attempts = record.get("attempts") or [
                {"kind": "exception", "error": record.get("error", "failed"), "elapsed": 0.0}
            ]
        for attempt in attempts:
            batch.record_failure(
                index,
                str(attempt.get("kind", "exception")),
                str(attempt.get("error", "failed")),
                float(attempt.get("elapsed", 0.0)),
            )
        if result is None:
            batch.give_up(index)
        else:
            batch.complete(index, result)

    def execute(self, batch, pending: Sequence[int], workers: int) -> None:
        # Inside a pool worker already (nested fan-out): spawning more
        # processes would oversubscribe quadratically, exactly like a
        # nested pool — run serially instead.
        if os.environ.get("REPRO_POOL_WORKER"):
            from repro.analysis.resilience import _serial_phase

            batch.degrade(f"{self.name}: nested inside a pool worker; ran serially")
            _serial_phase(batch, pending)
            return

        # Every scratch directory and connection this drain opens is
        # released here, whether the drain returns or raises.
        with ExitStack() as cleanup:
            queue = self._open_queue(cleanup)
            # ``pending`` holds one index per key.  A queue already holding
            # done records for some keys skips them — that is the resume path.
            key_to_index = {batch.outcome(index).key: index for index in pending}
            queue.submit([batch.jobs[index] for index in pending])

            # A deadline set on the batch (sweep --deadline) wins; otherwise
            # the backend's own budget starts ticking now.
            deadline_at = getattr(batch, "deadline_at", None)
            if deadline_at is None and self.deadline is not None:
                deadline_at = time.monotonic() + self.deadline

            if self.supervise:
                self._drain_supervised(batch, queue, workers, deadline_at)
                disconnected = False
            else:
                disconnected = self._drain_participating(
                    batch, queue, workers, deadline_at, cleanup
                )

            deadline_hit = bool(
                getattr(batch.report, "deadline_hit", False)
                or (deadline_at is not None and time.monotonic() >= deadline_at)
            )
            if deadline_hit:
                batch.report.deadline_hit = True
            self._collect_and_fold(batch, queue, key_to_index, deadline_hit, disconnected)

    def _collect_and_fold(self, batch, queue, key_to_index: Dict[str, int],
                          deadline_hit: bool, disconnected: bool) -> None:
        """Fold the queue's records into the batch's outcomes.

        Done records complete (or permanently fail) their outcomes,
        quarantine records become journaled poison failures, and keys
        with no record become honest ``unclaimed`` outcomes when the
        drain was cut short (deadline, or a broker that went
        unreachable) — *not* journaled, so ``--resume`` completes
        exactly the missing work.
        """
        from repro.analysis.netqueue import BrokerError, BrokerUnreachable

        # Collection is itself a network op for a broker; a broker lost
        # *after* the drain must still leave the batch resumable.
        done_records: Dict[str, Dict] = {}
        quarantined_records: Dict[str, Dict] = {}
        try:
            done_records = dict(queue.collect_new(set()))
            quarantined_records = queue.collect_quarantined()
        except (BrokerUnreachable, BrokerError) as exc:
            disconnected = True
            batch.degrade(
                f"{self.name}: broker unreachable while collecting results ({exc}); "
                "uncollected jobs left for --resume"
            )
        for key, record in done_records.items():
            index = key_to_index.pop(key, None)
            if index is not None:  # else a previous sweep's job sharing this queue
                self._apply(batch, index, record)
        poisoned_jobs = 0
        unclaimed_jobs = 0
        for key, index in key_to_index.items():
            record = quarantined_records.get(key)
            if record is not None:
                # Poison job: every execution killed its worker.  The
                # sealed quarantine record is the outcome — a permanent,
                # journaled failure carrying the forensics.
                reason = str(record.get("reason", "quarantined as a poison job"))
                batch.record_failure(index, "poisoned", reason, 0.0)
                batch.outcome(index).quarantined = True
                batch.give_up(index)
                poisoned_jobs += 1
                continue
            if deadline_hit or disconnected:
                # Never claimed (or its record never collected): not a
                # failure, just not attempted from the batch's point of
                # view.  Left out of the journal so --resume runs it —
                # and a restarted broker's ``submit`` skips keys whose
                # done records already landed, so nothing re-executes.
                batch.mark_unclaimed(index)
                unclaimed_jobs += 1
                continue
            # Drained queue but no intact done record (quarantined on
            # read, or lost to the filesystem): an honest failure beats
            # a silent hang.
            batch.record_failure(index, "exception", "queue drained with no done record", 0.0)
            batch.give_up(index)
        if poisoned_jobs:
            batch.degrade(
                f"{self.name}: {poisoned_jobs} job(s) quarantined as poison "
                f"(forensics under {queue.quarantine_dir})"
            )
        if unclaimed_jobs:
            cause = "the broker went unreachable" if disconnected else "deadline"
            batch.degrade(
                f"{self.name}: {cause} left {unclaimed_jobs} job(s) unclaimed; "
                "re-run with --resume to complete them"
            )
        if queue.quarantined:
            batch.degrade(f"{self.name}: {queue.quarantined} corrupt queue record(s) quarantined")
        if self.broker is not None:
            try:
                queue.hello()  # refresh broker_restarts for the health report
            except (BrokerUnreachable, BrokerError):
                pass
            self.last_transport = {
                "reconnects": queue.reconnects,
                "retried_calls": queue.retried_calls,
                "replayed_ops": queue.replayed_ops,
                "broker_restarts": queue.broker_restarts,
            }
            batch.report.transport = dict(self.last_transport)

    def _drain_participating(self, batch, queue, workers: int, deadline_at,
                             cleanup: ExitStack) -> bool:
        """Default drain: spawn helpers, then the parent drains too.

        Returns whether the broker went unreachable past the retry budget.
        """
        from repro.analysis.netqueue import BrokerError, BrokerUnreachable
        from repro.analysis.worker import drain_queue
        from repro.common.diskio import PressureGuard

        spawn = self.spawn if self.spawn is not None else max(0, workers - 1)
        logs_dir = None
        if spawn and self.broker is not None:
            # A broker's workers share no queue directory to log into.
            logs_dir = Path(tempfile.mkdtemp(prefix="repro-net-logs-"))
            cleanup.callback(shutil.rmtree, logs_dir, ignore_errors=True)
        procs = []
        for i in range(spawn):
            try:
                procs.append(self._spawn_worker(queue, i, batch, deadline_at, logs_dir))
            except OSError as exc:
                batch.degrade(f"{self.name}: could not spawn worker {i} ({exc!r})")
                break
        disconnected = False
        try:
            # The parent drains too: with zero live workers the sweep
            # still finishes, and stale leases of dead workers are stolen.
            stats = drain_queue(
                queue,
                worker="parent-" + uuid.uuid4().hex[:6],
                batch=self.batch,
                policy=batch.policy,
                trace_store=batch.trace_store,
                poll=self.poll,
                guard=PressureGuard(queue.root, key=f"{queue.root}|parent"),
                deadline=deadline_at,
            )
            self.last_parent_stats = stats.to_dict()
            disconnected = stats.stopped == "disconnected"
            for event in stats.degradations:
                batch.degrade(f"{self.name}: parent: {event}")
        finally:
            self._reap(procs)
            try:
                self.last_counts = queue.counts()
            except (BrokerUnreachable, BrokerError):
                disconnected = True
                self.last_counts = {}
        return disconnected

    def _drain_supervised(self, batch, queue: FileQueue, workers: int,
                          deadline_at) -> None:
        """Supervised drain: the parent only monitors (see the supervisor
        module).  Crucially it claims nothing, so poison jobs cannot kill
        it — the opposite trade-off from the participating drain."""
        from repro.analysis.supervisor import FleetSupervisor

        fleet = self.spawn if self.spawn is not None else max(1, workers - 1)
        fleet = max(1, fleet)  # a supervisor with no workers drains nothing
        store = getattr(batch, "trace_store", None)
        supervisor = FleetSupervisor(
            queue,
            workers=fleet,
            batch=self.batch,
            poll=self.poll,
            worker_poll=self.poll,
            retries=max(0, batch.policy.max_attempts - 1),
            timeout=batch.policy.timeout,
            deadline=(max(0.0, deadline_at - time.monotonic())
                      if deadline_at is not None else None),
            max_restarts=self.max_restarts,
            trace_store_dir=store.directory if store is not None else None,
        )
        report = supervisor.run()
        self.last_supervisor = report.to_dict()
        self.last_counts = queue.counts()
        self.last_parent_stats = {}
        if report.deadline_hit:
            batch.report.deadline_hit = True
        if report.restarts:
            batch.degrade(
                f"{self.name}: supervisor restarted workers {report.restarts} time(s) "
                f"({report.crash_restarts} crash, {report.pressure_restarts} pressure)"
            )
        if report.stopped == "fleet-exhausted":
            batch.degrade(
                f"{self.name}: supervisor fleet exhausted its restart budget "
                "before the queue drained"
            )


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def queue_backend(
    transport: str,
    *,
    queue_dir: Optional[os.PathLike | str] = None,
    spawn: Optional[int] = None,
    batch: Optional[int] = None,
    supervise: bool = False,
    poison_threshold: Optional[int] = None,
    broker: Optional[str] = None,
) -> QueueBackend:
    """Build the :class:`QueueBackend` for ``transport``, ``"shared-fs"`` or ``"tcp"``.

    The one place a queue backend's settings are decided.  Each is the
    value passed here (a ``repro-sim sweep`` flag), else its environment
    variable, else its default: ``queue_dir`` from ``REPRO_QUEUE_DIR``
    (default: a throwaway directory), ``spawn`` from
    ``REPRO_QUEUE_WORKERS`` (``workers - 1``), ``batch`` from
    ``REPRO_QUEUE_BATCH`` (8) and ``broker`` from ``REPRO_BROKER``
    (``tcp`` requires one, ``shared-fs`` refuses one).  The lease TTL
    has no flag: it is ``REPRO_LEASE_TTL``, else 30 s.  The queue
    directory and lease TTL are ``shared-fs`` settings, since a ``tcp``
    drain's queue belongs to its broker.  A malformed value fails here,
    naming its source, before anything is submitted.
    """
    if spawn is None:
        spawn = env_num(QUEUE_WORKERS_ENV, int, None)
    if batch is None:
        batch = env_num(QUEUE_BATCH_ENV, int, 8)
    # A tcp drain ignores the TTL: its broker's queue keeps its own.
    lease_ttl = env_num(LEASE_TTL_ENV, float, 30.0)
    if transport == "tcp":
        from repro.analysis.netqueue import BROKER_ENV, net_timeout_from_env

        broker = broker or os.environ.get(BROKER_ENV)
        if not broker:
            raise ValueError(
                f"backend 'tcp' needs a broker address: pass --broker HOST:PORT "
                f"or set {BROKER_ENV}"
            )
        # The timeout env is validated here too so a typo fails pre-submit.
        net_timeout_from_env()
    elif broker:
        raise ValueError("--broker requires --backend tcp")
    else:
        what = "--queue-dir"
        if queue_dir is None:
            queue_dir, what = os.environ.get(QUEUE_DIR_ENV) or None, QUEUE_DIR_ENV
        if queue_dir is not None:
            from repro.analysis.workqueue import validate_queue_dir

            queue_dir = validate_queue_dir(queue_dir, what=what)
    return QueueBackend(
        queue_dir=queue_dir, spawn=spawn, lease_ttl=lease_ttl, batch=batch,
        supervise=supervise, poison_threshold=poison_threshold, broker=broker,
    )


def resolve_backend(spec=None) -> Optional[ExecutionBackend]:
    """Turn a backend spec into an instance.

    An :class:`ExecutionBackend` instance passes through.  Otherwise the
    name is ``spec``, else ``REPRO_BACKEND``; with neither the result is
    ``None``, i.e. the built-in pool path without any backend object.
    ``"pool"`` builds a :class:`PoolBackend`, and ``"shared-fs"`` and
    ``"tcp"`` go to :func:`queue_backend`.  Any other name raises with
    the known names — a typo in ``REPRO_BACKEND`` must fail loudly, not
    silently serialise.  A backend of another class runs by passing its
    instance.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV)
        if not spec:
            return None
    if spec == "pool":
        return PoolBackend()
    if spec in ("shared-fs", "tcp"):
        return queue_backend(spec)
    raise ValueError(f"unknown execution backend {spec!r}; registered: pool, shared-fs, tcp")
