"""ExecutionBackend contract: selection, equivalence, resume, failure flow.

The load-bearing assertion, repeated from several angles: **swapping
backends never changes results**.  A batch through the shared-FS queue
must be bit-identical to the same batch run serially in-process, with
the same cache writes, the same journal lines, and the same failure
records.
"""

import pytest

from repro.analysis.backend import (
    ExecutionBackend,
    PoolBackend,
    SharedFSBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, job_from_dict, job_to_dict, run_jobs
from repro.analysis.resilience import NO_RETRY, JobsFailedError, RetryPolicy
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

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
    return SharedFSBackend(**kwargs)


# ----------------------------------------------------------------------
# Selection / registry
# ----------------------------------------------------------------------
def test_resolve_defaults_to_none_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) is None


def test_resolve_by_name_and_instance(tmp_path):
    assert isinstance(resolve_backend("pool"), PoolBackend)
    assert isinstance(resolve_backend("shared-fs"), SharedFSBackend)
    instance = _backend(tmp_path)
    assert resolve_backend(instance) is instance


def test_resolve_env_configures_shared_fs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BACKEND", "shared-fs")
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "q"))
    monkeypatch.setenv("REPRO_QUEUE_WORKERS", "0")
    monkeypatch.setenv("REPRO_LEASE_TTL", "7.5")
    monkeypatch.setenv("REPRO_QUEUE_BATCH", "3")
    backend = resolve_backend(None)
    assert isinstance(backend, SharedFSBackend)
    assert backend.queue_dir == tmp_path / "q"
    assert backend.spawn == 0
    assert backend.lease_ttl == 7.5
    assert backend.batch == 3


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


def test_register_backend_extends_the_registry(tmp_path):
    class Recorder(ExecutionBackend):
        name = "recorder"

        def execute(self, batch, pending, workers):
            from repro.analysis.resilience import _serial_phase

            _serial_phase(batch, pending)

    register_backend("recorder", Recorder)
    try:
        assert "recorder" in backend_names()
        results = run_jobs(_jobs(2), workers=1, backend="recorder")
        assert len(results) == 2
    finally:
        from repro.analysis import backend as backend_mod

        backend_mod._REGISTRY.pop("recorder", None)


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
    # a resumed batch is served wholly from the journal: nothing executes
    backend = _backend(tmp_path, queue_dir=tmp_path / "queue2")
    report = run_jobs(
        jobs, workers=1, journal=journal, backend=backend, return_report=True
    )
    assert all(o.from_journal for o in report.outcomes)
    assert backend.last_parent_stats == {}  # backend never even ran


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


def test_duplicate_jobs_in_one_batch_share_one_execution(tmp_path):
    job = _jobs(1)[0]
    backend = _backend(tmp_path)
    report = run_jobs([job, job, job], workers=1, backend=backend, return_report=True)
    assert all(o.ok for o in report.outcomes)
    assert backend.last_parent_stats["executed"] == 1
    first = _fingerprint(report.outcomes[0].result)
    assert all(_fingerprint(o.result) == first for o in report.outcomes)


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
        SharedFSBackend(queue_dir=tmp_path, spawn=-1)
    with pytest.raises(ValueError):
        SharedFSBackend(queue_dir=tmp_path, batch=0)
