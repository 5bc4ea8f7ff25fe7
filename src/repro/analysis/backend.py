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
* :class:`SharedFSBackend` (``"shared-fs"``) — a shared-filesystem
  work queue (:mod:`repro.analysis.workqueue`) drainable by any number
  of ``repro-sim worker`` processes on any host that can see the
  directory.  The submitting process publishes the jobs, optionally
  spawns local workers, *participates in the drain itself* (so a sweep
  completes even if every spawned worker dies — stale leases get
  stolen), then folds the sealed ``done/`` records back into the
  batch's outcomes, cache, and journal.
* :class:`TCPBackend` (``"tcp"``) — the same queue protocol over a
  length-prefixed JSON TCP connection to ``repro-sim broker``
  (:mod:`repro.analysis.netqueue`), for workers that share no
  filesystem with the submitter.  Retries with capped backoff, per-op
  idempotency, and honest ``unclaimed`` outcomes on broker loss keep
  the bit-identical-resume guarantee across resets, stalls, and
  partitions.

The contract every backend must honour (and the chaos suite enforces):
**swapping backends never changes results** — jobs are pure functions
of their content-hashed keys, so the same sweep through ``pool``,
``shared-fs``, or plain serial execution is bit-identical.  Backends
differ only in throughput, fault envelope, and where the CPUs are.

Selection: ``run_jobs(..., backend=...)`` accepts an instance, a
registered name, or ``None``; ``None`` defers to the ``REPRO_BACKEND``
environment variable (unset → the built-in pool path with zero new
overhead).  Third-party backends register with
:func:`register_backend` — see ``docs/extending.md`` for the
checklist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
import uuid
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.workqueue import FileQueue

BACKEND_ENV = "REPRO_BACKEND"
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"
QUEUE_WORKERS_ENV = "REPRO_QUEUE_WORKERS"
LEASE_TTL_ENV = "REPRO_LEASE_TTL"
QUEUE_BATCH_ENV = "REPRO_QUEUE_BATCH"


class ExecutionBackend(ABC):
    """Where a batch's pending jobs physically execute.

    ``execute`` receives the resilience engine's mutable batch state
    (``repro.analysis.resilience._Batch``) and the indices still
    pending after the journal/cache prefilter.  It must drive every
    pending index to a terminal state — ``batch.complete(i, result)``
    on success, ``batch.record_failure(...)`` + ``batch.give_up(i)``
    on permanent failure — and may call ``batch.degrade(event)`` to
    report degradations.  It must not touch non-pending outcomes.
    """

    #: Registry name; subclasses override.
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


class SharedFSBackend(ExecutionBackend):
    """Drain a batch through a shared-filesystem work queue.

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
        stealable.
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

    After ``execute`` returns, ``last_counts`` / ``last_worker_stats``
    / ``last_parent_stats`` / ``last_supervisor`` hold the drain's
    telemetry for ``repro-sim bench --sweep``.
    """

    name = "shared-fs"

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
    ) -> None:
        if spawn is not None and spawn < 0:
            raise ValueError(f"spawn must be >= 0 (got {spawn})")
        if batch < 1:
            raise ValueError(f"batch must be >= 1 (got {batch})")
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds (got {deadline})")
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.spawn = spawn
        self.lease_ttl = lease_ttl
        self.batch = batch
        self.poll = poll
        self.poison_threshold = poison_threshold
        self.deadline = deadline
        self.supervise = supervise
        self.max_restarts = max_restarts
        self.last_counts: Dict = {}
        self.last_worker_stats: List[Dict] = []
        self.last_parent_stats: Dict = {}
        self.last_supervisor: Dict = {}

    # ------------------------------------------------------------------
    def _spawn_worker(self, queue: FileQueue, index: int, batch,
                      deadline_at: Optional[float] = None,
                      broker: Optional[str] = None,
                      logs_dir: Optional[Path] = None):
        """Launch one ``repro-sim worker`` subprocess against the queue.

        Best-effort by design: a host that cannot spawn (sandbox, fork
        limits) degrades to the parent draining alone.  Workers exit
        when the queue drains.  A filesystem queue passes no ``broker``
        and its workers log to the queue's ``logs/`` directory; a TCP
        drain passes the broker address and a ``logs_dir`` of its own.
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
            broker=broker,
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

    def _apply(self, batch, indices: List[int], record: Dict) -> None:
        """Fold one sealed done record into every outcome sharing its key."""
        from repro.analysis.result_cache import result_from_dict

        if record.get("ok"):
            try:
                result = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError):
                for index in indices:
                    batch.record_failure(index, "exception", "corrupt done record payload", 0.0)
                    batch.give_up(index)
                return
            for index in indices:
                # Replay failed attempts that preceded the success, so the
                # outcome's history matches what a pool run would report.
                for attempt in record.get("attempts") or []:
                    batch.record_failure(
                        index,
                        str(attempt.get("kind", "exception")),
                        str(attempt.get("error", "failed")),
                        float(attempt.get("elapsed", 0.0)),
                    )
                batch.complete(index, result)
            return
        attempts = record.get("attempts") or [
            {"kind": "exception", "error": record.get("error", "failed"), "elapsed": 0.0}
        ]
        for index in indices:
            for attempt in attempts:
                batch.record_failure(
                    index,
                    str(attempt.get("kind", "exception")),
                    str(attempt.get("error", "failed")),
                    float(attempt.get("elapsed", 0.0)),
                )
            batch.give_up(index)

    def execute(self, batch, pending: Sequence[int], workers: int) -> None:
        from repro.analysis.worker import drain_queue

        # Inside a pool worker already (nested fan-out): spawning more
        # processes would oversubscribe quadratically, exactly like a
        # nested pool — run serially instead.
        if os.environ.get("REPRO_POOL_WORKER"):
            from repro.analysis.resilience import _serial_phase

            batch.degrade("shared-fs: nested inside a pool worker; ran serially")
            _serial_phase(batch, pending)
            return

        owns_dir = self.queue_dir is None
        root = self.queue_dir or Path(tempfile.mkdtemp(prefix="repro-queue-"))
        queue = FileQueue(root, lease_ttl=self.lease_ttl, poison_threshold=self.poison_threshold)
        key_to_indices: Dict[str, List[int]] = {}
        for index in pending:
            key_to_indices.setdefault(batch.outcome(index).key, []).append(index)
        # One queue job per distinct key; duplicates fan back out on apply.
        queue.submit([batch.jobs[indices[0]] for indices in key_to_indices.values()])

        # A deadline set on the batch (sweep --deadline) wins; otherwise
        # the backend's own budget starts ticking now.
        deadline_at = getattr(batch, "deadline_at", None)
        if deadline_at is None and self.deadline is not None:
            deadline_at = time.monotonic() + self.deadline

        if self.supervise:
            self._drain_supervised(batch, queue, workers, deadline_at)
        else:
            self._drain_participating(batch, queue, workers, deadline_at, drain_queue)

        deadline_hit = bool(
            getattr(batch.report, "deadline_hit", False)
            or (deadline_at is not None and time.monotonic() >= deadline_at)
        )
        if deadline_hit:
            batch.report.deadline_hit = True

        self._fold_outcomes(batch, queue, key_to_indices, deadline_hit)
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)

    def _fold_outcomes(self, batch, queue, key_to_indices: Dict[str, List[int]],
                       deadline_hit: bool, disconnected: bool = False,
                       done_records: Optional[Dict[str, Dict]] = None,
                       quarantined_records: Optional[Dict[str, Dict]] = None) -> None:
        """Fold the queue's records into the batch's outcomes.

        Shared by the filesystem and TCP drains: done records complete
        (or permanently fail) their outcomes, quarantine records become
        journaled poison failures, and keys with no record become
        honest ``unclaimed`` outcomes when the drain was cut short
        (deadline, or a broker that went unreachable) — *not* journaled,
        so ``--resume`` completes exactly the missing work.  The TCP
        backend prefetches both record maps (collection itself can fail
        over the network); ``None`` means fetch from the queue here.
        """
        if quarantined_records is None:
            quarantined_records = queue.collect_quarantined()
        if done_records is None:
            done_records = dict(queue.collect_new(set()))
        applied = set()
        for key, record in done_records.items():
            indices = key_to_indices.get(key)
            if indices is None:
                continue  # a previous sweep's job sharing this queue dir
            applied.add(key)
            self._apply(batch, indices, record)
        poisoned_jobs = 0
        unclaimed_jobs = 0
        for key, indices in key_to_indices.items():
            if key in applied:
                continue
            record = quarantined_records.get(key)
            if record is not None:
                # Poison job: every execution killed its worker.  The
                # sealed quarantine record is the outcome — a permanent,
                # journaled failure carrying the forensics.
                reason = str(record.get("reason", "quarantined as a poison job"))
                for index in indices:
                    batch.record_failure(index, "poisoned", reason, 0.0)
                    batch.outcome(index).quarantined = True
                    batch.give_up(index)
                poisoned_jobs += len(indices)
                continue
            if deadline_hit or disconnected:
                # Never claimed (or its record never collected): not a
                # failure, just not attempted from the batch's point of
                # view.  Left out of the journal so --resume runs it —
                # and a restarted broker's ``submit`` skips keys whose
                # done records already landed, so nothing re-executes.
                for index in indices:
                    batch.mark_unclaimed(index)
                unclaimed_jobs += len(indices)
                continue
            # Drained queue but no intact done record (quarantined on
            # read, or lost to the filesystem): an honest failure beats
            # a silent hang.
            for index in indices:
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

    def _drain_participating(self, batch, queue: FileQueue, workers: int,
                             deadline_at, drain_queue) -> None:
        """Default drain: spawn helpers, then the parent drains too."""
        from repro.common.diskio import PressureGuard

        spawn = self.spawn if self.spawn is not None else max(0, workers - 1)
        procs = []
        for i in range(spawn):
            try:
                procs.append(self._spawn_worker(queue, i, batch, deadline_at))
            except OSError as exc:
                batch.degrade(f"shared-fs: could not spawn worker {i} ({exc!r})")
                break
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
            for event in stats.degradations:
                batch.degrade(f"shared-fs: parent: {event}")
        finally:
            self._reap(procs)
            self.last_counts = queue.counts()
            self.last_worker_stats = queue.read_stats()

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
        self.last_worker_stats = queue.read_stats()
        self.last_parent_stats = {}
        if report.deadline_hit:
            batch.report.deadline_hit = True
        if report.restarts:
            batch.degrade(
                f"shared-fs: supervisor restarted workers {report.restarts} time(s) "
                f"({report.crash_restarts} crash, {report.pressure_restarts} pressure)"
            )
        if report.stopped == "fleet-exhausted":
            batch.degrade(
                "shared-fs: supervisor fleet exhausted its restart budget "
                "before the queue drained"
            )


class TCPBackend(SharedFSBackend):
    """Drain a batch through a TCP broker — no shared filesystem needed.

    The submitting process connects a
    :class:`~repro.analysis.netqueue.NetQueue` to ``repro-sim broker``,
    publishes the batch's jobs, optionally spawns local ``repro-sim
    worker --broker`` subprocesses, participates in the drain itself,
    and folds the collected done records back into the batch — the
    same shape as :class:`SharedFSBackend`, with the queue on the far
    side of a socket.  Remote hosts join the same drain by pointing
    their own workers at the broker.

    Failure envelope: client calls retry with capped backoff + seeded
    jitter inside ``retry``; a broker unreachable past that budget
    turns the drain into honest ``unclaimed`` outcomes (never
    journaled), so ``sweep --resume`` against a restarted broker
    completes exactly the missing work.  ``last_transport`` and
    ``batch.report.transport`` carry the wire-health counters for
    ``bench --sweep``.
    """

    name = "tcp"

    def __init__(
        self,
        broker: str,
        spawn: Optional[int] = None,
        batch: int = 8,
        poll: float = 0.1,
        deadline: Optional[float] = None,
        retry=None,
        call_timeout: Optional[float] = None,
    ) -> None:
        from repro.analysis.netqueue import parse_broker_spec

        super().__init__(queue_dir=None, spawn=spawn, batch=batch, poll=poll,
                         deadline=deadline)
        self.broker_host, self.broker_port = parse_broker_spec(broker)
        self.retry = retry
        self.call_timeout = call_timeout
        self.last_transport: Dict[str, int] = {}

    @property
    def broker_spec(self) -> str:
        return f"{self.broker_host}:{self.broker_port}"

    def execute(self, batch, pending: Sequence[int], workers: int) -> None:
        from repro.analysis.netqueue import BrokerError, BrokerUnreachable, NetQueue
        from repro.analysis.worker import drain_queue

        if os.environ.get("REPRO_POOL_WORKER"):
            from repro.analysis.resilience import _serial_phase

            batch.degrade("tcp: nested inside a pool worker; ran serially")
            _serial_phase(batch, pending)
            return

        queue = NetQueue(self.broker_host, self.broker_port,
                         retry=self.retry, call_timeout=self.call_timeout)
        # Fail fast and actionably: an unreachable or misconfigured
        # broker surfaces here, before anything is submitted or spawned.
        queue.hello()
        key_to_indices: Dict[str, List[int]] = {}
        for index in pending:
            key_to_indices.setdefault(batch.outcome(index).key, []).append(index)
        # One queue job per distinct key; a restarted broker's queue
        # already holding done records for some keys skips them — that
        # is the resume path.
        queue.submit([batch.jobs[indices[0]] for indices in key_to_indices.values()])

        deadline_at = getattr(batch, "deadline_at", None)
        if deadline_at is None and self.deadline is not None:
            deadline_at = time.monotonic() + self.deadline

        disconnected = self._drain_tcp(batch, queue, workers, deadline_at, drain_queue)

        deadline_hit = bool(
            getattr(batch.report, "deadline_hit", False)
            or (deadline_at is not None and time.monotonic() >= deadline_at)
        )
        if deadline_hit:
            batch.report.deadline_hit = True

        # Collection is itself a network op; a broker lost *after* the
        # drain must still leave the batch in a resumable state.
        done_records: Dict[str, Dict] = {}
        quarantined_records: Dict[str, Dict] = {}
        try:
            done_records = dict(queue.collect_new(set()))
            quarantined_records = queue.collect_quarantined()
        except (BrokerUnreachable, BrokerError) as exc:
            disconnected = True
            batch.degrade(
                f"tcp: broker unreachable while collecting results ({exc}); "
                "uncollected jobs left for --resume"
            )
        self._fold_outcomes(batch, queue, key_to_indices, deadline_hit,
                            disconnected=disconnected,
                            done_records=done_records,
                            quarantined_records=quarantined_records)
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
        queue.close()

    def _drain_tcp(self, batch, queue, workers: int, deadline_at, drain_queue) -> bool:
        """Spawn TCP workers, drain as the parent; True if the broker
        went unreachable past the retry budget."""
        from repro.analysis.netqueue import BrokerError, BrokerUnreachable
        from repro.common.diskio import PressureGuard

        spawn = self.spawn if self.spawn is not None else max(0, workers - 1)
        logs_dir = Path(tempfile.mkdtemp(prefix="repro-net-logs-")) if spawn else None
        procs = []
        for i in range(spawn):
            try:
                procs.append(self._spawn_worker(
                    queue, i, batch, deadline_at, broker=self.broker_spec, logs_dir=logs_dir
                ))
            except OSError as exc:
                batch.degrade(f"tcp: could not spawn worker {i} ({exc!r})")
                break
        disconnected = False
        try:
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
            if stats.stopped == "disconnected":
                disconnected = True
            for event in stats.degradations:
                batch.degrade(f"tcp: parent: {event}")
        finally:
            self._reap(procs)
            try:
                self.last_counts = queue.counts()
                self.last_worker_stats = queue.read_stats()
            except (BrokerUnreachable, BrokerError):
                disconnected = True
                self.last_counts = {}
                self.last_worker_stats = []
        return disconnected


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (later wins, like env vars)."""
    _REGISTRY[name] = factory


def _shared_fs_from_env() -> SharedFSBackend:
    """A :class:`SharedFSBackend` configured from ``REPRO_QUEUE_*`` vars."""

    def _num(env: str, cast, default):
        raw = os.environ.get(env)
        if not raw:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(f"{env}={raw!r} is not a valid {cast.__name__}") from None

    queue_dir = os.environ.get(QUEUE_DIR_ENV) or None
    if queue_dir is not None:
        from repro.analysis.workqueue import validate_queue_dir

        queue_dir = validate_queue_dir(queue_dir, what=QUEUE_DIR_ENV)
    return SharedFSBackend(
        queue_dir=queue_dir,
        spawn=_num(QUEUE_WORKERS_ENV, int, None),
        lease_ttl=_num(LEASE_TTL_ENV, float, 30.0),
        batch=_num(QUEUE_BATCH_ENV, int, 8),
    )


def _tcp_from_env() -> "TCPBackend":
    """A :class:`TCPBackend` configured from ``REPRO_BROKER`` and friends."""
    from repro.analysis.netqueue import BROKER_ENV, net_timeout_from_env

    broker = os.environ.get(BROKER_ENV)
    if not broker:
        raise ValueError(
            f"backend 'tcp' needs a broker address: set {BROKER_ENV}=HOST:PORT "
            "(or pass --broker on the command line)"
        )
    spawn_raw = os.environ.get(QUEUE_WORKERS_ENV)
    spawn = None
    if spawn_raw:
        try:
            spawn = int(spawn_raw)
        except ValueError:
            raise ValueError(f"{QUEUE_WORKERS_ENV}={spawn_raw!r} is not a valid int") from None
    batch_raw = os.environ.get(QUEUE_BATCH_ENV)
    batch = 8
    if batch_raw:
        try:
            batch = int(batch_raw)
        except ValueError:
            raise ValueError(f"{QUEUE_BATCH_ENV}={batch_raw!r} is not a valid int") from None
    # parse_broker_spec inside TCPBackend validates the address; the
    # timeout env is validated here too so a typo fails pre-submit.
    net_timeout_from_env()
    return TCPBackend(broker=broker, spawn=spawn, batch=batch)


register_backend("pool", PoolBackend)
register_backend("shared-fs", _shared_fs_from_env)
register_backend("tcp", _tcp_from_env)


def backend_names() -> List[str]:
    return sorted(_REGISTRY)


def resolve_backend(spec=None) -> Optional[ExecutionBackend]:
    """Turn a backend spec into an instance.

    ``None`` consults ``REPRO_BACKEND`` (still unset → ``None``, i.e.
    the built-in pool path without any backend object); a string is
    looked up in the registry; an :class:`ExecutionBackend` instance
    passes through.  An unknown name raises with the known names — a
    typo in ``REPRO_BACKEND`` must fail loudly, not silently serialise.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV)
        if not spec:
            return None
    factory = _REGISTRY.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown execution backend {spec!r}; registered: {', '.join(backend_names())}"
        )
    return factory()
