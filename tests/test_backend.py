"""ExecutionBackend contract: selection, equivalence, resume, failure flow.

The load-bearing assertion, repeated from several angles: **swapping
backends never changes results**.  A batch through a queue, in a shared
directory or behind a broker, must be bit-identical to the same batch
run serially in-process, with the same cache writes, the same journal
lines, and the same failure records.
"""

import inspect
import sys
import tempfile

import pytest

import repro.analysis.parallel as parallel_mod
import repro.analysis.result_cache as result_cache_mod
import repro.analysis.worker as worker_mod
from repro.analysis.backend import (
    ExecutionBackend,
    PoolBackend,
    QueueBackend,
    resolve_backend,
)
from repro.analysis.checkpoint import RunJournal
from repro.analysis.netqueue import Broker
from repro.analysis.parallel import SimulationJob, job_from_dict, job_to_dict, run_jobs
from repro.analysis.resilience import NO_RETRY, JobsFailedError, RetryPolicy
from repro.analysis.result_cache import ResultCache
from repro.analysis.workqueue import FileQueue
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import FaultInjected, inject_faults

N = 2_000

FAST = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _cfg(kind=FilterKind.PA):
    return SimulationConfig.paper_default(kind).with_warmup(N // 4)


def _jobs(n, workload="em3d"):
    sizes = (1024, 2048, 4096, 8192, 16384)
    return [
        SimulationJob(workload, _cfg().with_filter(table_entries=sizes[i % 5]), N, seed=i // 5)
        for i in range(n)
    ]


def _fingerprint(result):
    return (
        result.trace_name,
        result.filter_name,
        result.instructions,
        result.cycles,
        result.prefetch,
        result.per_source,
        tuple(sorted(result.stats.flat().items())),
    )


def _backend(tmp_path, **kwargs):
    kwargs.setdefault("spawn", 0)  # in-process drains keep the suite fast
    kwargs.setdefault("lease_ttl", 5.0)
    kwargs.setdefault("queue_dir", tmp_path / "queue")
    return QueueBackend(**kwargs)


# ----------------------------------------------------------------------
# Selection / registry
# ----------------------------------------------------------------------
def test_resolve_defaults_to_none_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) is None


def test_resolve_by_name_and_instance(tmp_path):
    assert isinstance(resolve_backend("pool"), PoolBackend)
    assert isinstance(resolve_backend("shared-fs"), QueueBackend)
    instance = _backend(tmp_path)
    assert resolve_backend(instance) is instance


def test_resolve_env_configures_shared_fs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BACKEND", "shared-fs")
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "q"))
    monkeypatch.setenv("REPRO_QUEUE_WORKERS", "0")
    monkeypatch.setenv("REPRO_LEASE_TTL", "7.5")
    monkeypatch.setenv("REPRO_QUEUE_BATCH", "3")
    backend = resolve_backend(None)
    assert isinstance(backend, QueueBackend)
    assert backend.queue_dir == tmp_path / "q"
    assert backend.spawn == 0
    assert backend.lease_ttl == 7.5
    assert backend.batch == 3


def test_resolve_env_configures_tcp(monkeypatch):
    monkeypatch.delenv("REPRO_BROKER", raising=False)
    with pytest.raises(ValueError, match="REPRO_BROKER"):
        resolve_backend("tcp")
    monkeypatch.setenv("REPRO_BROKER", "127.0.0.1:7070")
    monkeypatch.setenv("REPRO_QUEUE_WORKERS", "0")
    monkeypatch.setenv("REPRO_QUEUE_BATCH", "3")
    backend = resolve_backend("tcp")
    assert isinstance(backend, QueueBackend) and backend.name == "tcp"
    assert backend.broker == "127.0.0.1:7070"
    assert backend.spawn == 0 and backend.batch == 3
    monkeypatch.setenv("REPRO_QUEUE_BATCH", "lots")
    with pytest.raises(ValueError, match="REPRO_QUEUE_BATCH"):
        resolve_backend("tcp")


def test_unknown_backend_name_fails_loudly(monkeypatch):
    with pytest.raises(ValueError, match="registered"):
        resolve_backend("carrier-pigeon")
    monkeypatch.setenv("REPRO_BACKEND", "tyop")
    with pytest.raises(ValueError, match="tyop"):
        resolve_backend(None)


def test_malformed_env_knob_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_QUEUE_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_QUEUE_WORKERS"):
        resolve_backend("shared-fs")


def test_a_backend_of_your_own_runs_as_an_instance():
    class Recorder(ExecutionBackend):
        name = "recorder"
        pending = None

        def execute(self, batch, pending, workers):
            from repro.analysis.resilience import _serial_phase

            self.pending = list(pending)
            _serial_phase(batch, pending)

    recorder = Recorder()
    results = run_jobs(_jobs(2), workers=1, backend=recorder)
    assert recorder.pending == [0, 1]
    assert [_fingerprint(r) for r in results] == [
        _fingerprint(r) for r in run_jobs(_jobs(2), workers=1)
    ]
    with pytest.raises(ValueError, match="registered: pool, shared-fs, tcp"):
        run_jobs(_jobs(1), workers=1, backend="recorder")


def test_job_dict_roundtrip_preserves_key():
    for job in _jobs(5) + [_jobs(1, workload="mcf")[0]]:
        clone = job_from_dict(job_to_dict(job))
        assert clone == job
        assert clone.key() == job.key()


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
def test_shared_fs_matches_serial_bit_for_bit(tmp_path):
    jobs = _jobs(6)
    serial = run_jobs(jobs, workers=1)
    queued = run_jobs(jobs, workers=1, backend=_backend(tmp_path))
    assert [_fingerprint(a) for a in serial] == [_fingerprint(b) for b in queued]


def test_shared_fs_feeds_cache_and_journal(tmp_path):
    jobs = _jobs(3)
    cache = ResultCache(tmp_path / "cache")
    journal = RunJournal(tmp_path / "run.jsonl")
    run_jobs(jobs, workers=1, cache=cache, journal=journal, backend=_backend(tmp_path))
    assert len(cache) == 3
    assert len(journal.completed()) == 3
    # a resumed batch on the same store is served wholly from the journal:
    # nothing executes
    backend = _backend(tmp_path, queue_dir=tmp_path / "queue2")
    report = run_jobs(
        jobs, workers=1, cache=cache, journal=journal, backend=backend, return_report=True
    )
    assert all(o.from_journal for o in report.outcomes)
    assert backend.last_parent_stats == {}  # backend never even ran


def test_a_queue_drain_serialises_each_result_once(tmp_path, monkeypatch):
    # The worker serialises the result into its done record; the store
    # keeps that payload as it arrived instead of serialising again.
    serialised = []
    real = result_cache_mod.result_to_dict

    def counting(result):
        serialised.append(result)
        return real(result)

    monkeypatch.setattr(result_cache_mod, "result_to_dict", counting)
    monkeypatch.setattr(worker_mod, "result_to_dict", counting)
    jobs = _jobs(3)
    journal = RunJournal(tmp_path / "run.jsonl")
    run_jobs(jobs, workers=1, backend=_backend(tmp_path), journal=journal)
    assert len(journal.completed()) == len(jobs)
    assert len(serialised) / len(jobs) == 1.0


def test_a_queue_drain_stores_the_bytes_a_serial_run_stores(tmp_path):
    jobs = _jobs(3)
    serial, queued = ResultCache(tmp_path / "serial"), ResultCache(tmp_path / "queued")
    run_jobs(jobs, workers=1, cache=serial)
    run_jobs(jobs, workers=1, cache=queued, backend=_backend(tmp_path))
    for job in jobs:
        assert queued._path(job.key()).read_bytes() == serial._path(job.key()).read_bytes()


def test_reusing_a_queue_dir_resumes_without_rerunning(tmp_path):
    jobs = _jobs(4)
    first = _backend(tmp_path)
    expected = [_fingerprint(r) for r in run_jobs(jobs, workers=1, backend=first)]
    again = _backend(tmp_path)  # same queue dir: done/ records still there
    results = run_jobs(jobs, workers=1, backend=again)
    assert [_fingerprint(r) for r in results] == expected
    assert again.last_parent_stats["executed"] == 0
    # and a superset sweep only runs the genuinely new jobs
    superset = jobs + _jobs(6)[4:]
    third = _backend(tmp_path)
    run_jobs(superset, workers=1, backend=third)
    assert third.last_parent_stats["executed"] == len(superset) - len(jobs)


@pytest.fixture
def via():
    """What executes a batch: the queue, unless a test parametrises it."""
    return "queue"


@pytest.mark.parametrize("via", ["queue", "serial", "pool"])
def test_duplicate_jobs_in_one_batch_share_one_execution(tmp_path, monkeypatch, via):
    """Each key runs, is stored and is journaled once, whatever executes it."""
    a, b = _jobs(2)
    jobs, workers, backend = [a, a, a], 1, None
    if via == "queue":
        backend = _backend(tmp_path)
    elif via == "pool":
        # Two distinct keys, so the pool forks rather than running serially.
        jobs, workers, backend = [a, b, a, b, a], 2, PoolBackend()
    runs = tmp_path / "runs.log"  # appended to from forked workers too
    real_execute, real_put = parallel_mod.execute_job, ResultCache.put
    puts = []

    def execute(job, **kwargs):
        with open(runs, "a") as fh:
            fh.write(job.key() + "\n")
        return real_execute(job, **kwargs)

    def put(cache, key, result):
        puts.append(key)
        return real_put(cache, key, result)

    monkeypatch.setattr(parallel_mod, "execute_job", execute)
    monkeypatch.setattr(ResultCache, "put", put)
    journal = RunJournal(tmp_path / "j.jsonl")
    report = run_jobs(
        jobs, workers=workers, backend=backend, cache=ResultCache(tmp_path / "cache"),
        journal=journal, return_report=True,
    )
    assert all(o.ok for o in report.outcomes)
    keys = sorted({job.key() for job in jobs})
    assert sorted(runs.read_text().split()) == keys
    assert sorted(puts) == keys
    assert journal.appended == len(keys)
    if via == "queue":
        assert backend.last_parent_stats["executed"] == 1
    for job, outcome in zip(jobs, report.outcomes):
        first = report.outcomes[jobs.index(job)]
        assert _fingerprint(outcome.result) == _fingerprint(first.result)


def test_pool_backend_instance_matches_default_path(tmp_path):
    jobs = _jobs(3)
    default = run_jobs(jobs, workers=1)
    pooled = run_jobs(jobs, workers=1, backend=PoolBackend())
    assert [_fingerprint(a) for a in default] == [_fingerprint(b) for b in pooled]


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
def test_persistent_failure_is_reported_not_hung(tmp_path):
    jobs = _jobs(3)
    with inject_faults("raise@worker"):
        report = run_jobs(
            jobs, workers=1, backend=_backend(tmp_path),
            policy=RetryPolicy(max_attempts=2, **FAST), return_report=True,
        )
    assert all(not o.ok for o in report.outcomes)
    for outcome in report.outcomes:
        assert len(outcome.attempts) == 2  # retried under the policy, then gave up
        assert "FaultInjected" in outcome.error


def test_transient_fault_is_retried_to_success_through_the_queue(tmp_path):
    jobs = _jobs(2)
    expected = [_fingerprint(r) for r in run_jobs(jobs, workers=1)]
    with inject_faults("raise@worker:attempts=0"):  # first try only
        report = run_jobs(
            jobs, workers=1, backend=_backend(tmp_path, queue_dir=tmp_path / "q2"),
            policy=RetryPolicy(max_attempts=2, **FAST), return_report=True,
        )
    assert all(o.ok for o in report.outcomes)
    assert [len(o.attempts) for o in report.outcomes] == [1, 1]
    assert [_fingerprint(o.result) for o in report.outcomes] == expected


def test_failed_jobs_raise_jobs_failed_error_like_other_backends(tmp_path):
    jobs = _jobs(2)
    with inject_faults("raise@worker"):
        with pytest.raises(JobsFailedError) as excinfo:
            run_jobs(jobs, workers=1, backend=_backend(tmp_path), policy=NO_RETRY)
    assert len(excinfo.value.report.failures) == 2


def test_failure_attempt_history_survives_the_queue(tmp_path):
    job = _jobs(1)[0]
    journal = RunJournal(tmp_path / "j.jsonl")
    with inject_faults("raise@worker"):
        report = run_jobs(
            [job], workers=1, backend=_backend(tmp_path), journal=journal,
            policy=RetryPolicy(max_attempts=3, **FAST), return_report=True,
        )
    outcome = report.outcomes[0]
    assert not outcome.ok and len(outcome.attempts) == 3
    failed = journal.failed()
    assert len(failed) == 1
    assert len(next(iter(failed.values()))["attempts"]) == 3


def test_nested_inside_pool_worker_degrades_to_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POOL_WORKER", "1")
    backend = _backend(tmp_path)
    report = run_jobs(_jobs(2), workers=1, backend=backend, return_report=True)
    assert all(o.ok for o in report.outcomes)
    assert any("nested" in d for d in report.degradations)
    assert backend.last_parent_stats == {}  # the queue was never used


def test_shared_fs_rejects_bad_knobs(tmp_path):
    with pytest.raises(ValueError):
        QueueBackend(queue_dir=tmp_path, spawn=-1)
    with pytest.raises(ValueError):
        QueueBackend(queue_dir=tmp_path, batch=0)


# ----------------------------------------------------------------------
# The same contract with the queue behind a broker
# ----------------------------------------------------------------------
#: Client retries fast enough for an in-process broker.
NET_FAST = RetryPolicy(max_attempts=6, **FAST)


def _start_broker(queue_dir, lease_ttl=5.0):
    broker = Broker(FileQueue(queue_dir, lease_ttl=lease_ttl), host="127.0.0.1", port=0)
    broker.start()
    broker.serve_in_thread()
    return broker


class _Brokers:
    """``_backend`` with every queue dir served by an in-process broker
    (one per dir, so reusing a dir reaches the same queue)."""

    def __init__(self):
        self.running = {}

    def backend(self, tmp_path, **kwargs):
        kwargs.setdefault("spawn", 0)
        lease_ttl = kwargs.pop("lease_ttl", 5.0)
        queue_dir = kwargs.pop("queue_dir", tmp_path / "queue")
        if queue_dir not in self.running:
            self.running[queue_dir] = _start_broker(queue_dir, lease_ttl)
        port = self.running[queue_dir].port
        return QueueBackend(broker=f"127.0.0.1:{port}", retry=NET_FAST, **kwargs)

    def stop(self):
        for broker in self.running.values():
            broker.stop()


@pytest.mark.parametrize("contract", [
    test_shared_fs_matches_serial_bit_for_bit,
    test_shared_fs_feeds_cache_and_journal,
    test_reusing_a_queue_dir_resumes_without_rerunning,
    test_duplicate_jobs_in_one_batch_share_one_execution,
    test_persistent_failure_is_reported_not_hung,
    test_transient_fault_is_retried_to_success_through_the_queue,
    test_failed_jobs_raise_jobs_failed_error_like_other_backends,
    test_failure_attempt_history_survives_the_queue,
    test_nested_inside_pool_worker_degrades_to_serial,
], ids=lambda test: test.__name__)
def test_contract_holds_over_a_broker(contract, request, monkeypatch):
    """Each directory-queue contract test above, rerun with ``_backend``
    draining through a broker instead."""
    brokers = _Brokers()
    monkeypatch.setattr(sys.modules[__name__], "_backend", brokers.backend)
    try:
        contract(*[request.getfixturevalue(name)
                   for name in inspect.signature(contract).parameters])
    finally:
        brokers.stop()
    assert brokers.running, "the contract never drained through a broker"


def test_queue_drains_leave_no_scratch_behind(tmp_path, monkeypatch):
    """A broker drain removes its spawned workers' log directory, and a
    throwaway directory queue is removed even when the drain raises."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    broker = _start_broker(tmp_path / "broker-queue")
    try:
        backend = QueueBackend(broker=f"127.0.0.1:{broker.port}", spawn=1, retry=NET_FAST)
        assert len(run_jobs(_jobs(2), workers=1, backend=backend)) == 2
    finally:
        broker.stop()
    with inject_faults("raise@worker-death"):
        with pytest.raises(FaultInjected):
            run_jobs(_jobs(2), workers=1, backend=QueueBackend(spawn=0))
    assert list(scratch.glob("repro-net-logs-*")) == []
    assert list(scratch.glob("repro-queue-*")) == []
