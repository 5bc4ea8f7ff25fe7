"""Chaos suite: retry/timeout/degradation engine under injected faults.

The pool-path tests patch ``os.cpu_count`` because the engine (rightly)
clamps worker counts to the CPU count — on a single-core CI box the pool
phase would otherwise never run.  Real forked worker processes are used
throughout; only the clamp input is faked.
"""

import os
import signal
import time

import pytest

import repro.analysis.parallel as parallel_mod
import repro.analysis.resilience as resilience_mod
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import (
    DEFAULT_POLICY,
    NO_RETRY,
    JobsFailedError,
    RetryPolicy,
    execute_batch,
    job_token,
)
from repro.analysis.sweep import sweep_history_sizes
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

N = 3_000
WARM = 1_000

#: Small backoffs keep the chaos tests fast without changing semantics.
FAST = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _cfg(kind=FilterKind.NONE):
    return SimulationConfig.paper_default(kind).with_warmup(WARM)


def _jobs(n, workload="em3d"):
    return [SimulationJob(workload, _cfg(), N, seed) for seed in range(n)]


def _fingerprint(result):
    return (
        result.trace_name,
        result.filter_name,
        result.instructions,
        result.cycles,
        result.prefetch,
        result.per_source,
        result.l1_demand_accesses,
        result.l1_demand_misses,
        result.l2_demand_accesses,
        result.l2_demand_misses,
        result.l1_prefetch_fills,
        result.prefetch_line_traffic,
        result.demand_line_traffic,
        tuple(sorted(result.stats.flat().items())),
    )


@pytest.fixture
def many_cpus(monkeypatch):
    """Unclamp the pool path: pretend the machine has eight CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


class TestRetryPolicy:
    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay(0, "tok") == 0.0

    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=30.0)
        d1, d2, d3 = (policy.delay(n, "tok") for n in (1, 2, 3))
        assert (d1, d2, d3) == tuple(policy.delay(n, "tok") for n in (1, 2, 3))
        assert 0 < d1 < d2 < d3

    def test_delay_capped_by_backoff_max(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=2.0, jitter=0.5)
        assert policy.delay(9, "tok") <= 2.0 * 1.5

    def test_jitter_decorrelates_jobs(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay(1, "job-a") != policy.delay(1, "job-b")

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=-1.0)

    def test_canned_policies(self):
        assert DEFAULT_POLICY.max_attempts == 2
        assert NO_RETRY.max_attempts == 1


class TestSerialIsolation:
    def test_transient_fault_recovers_with_identical_result(self):
        jobs = _jobs(3, "gzip")
        clean = run_jobs(jobs, workers=1)
        with inject_faults("raise@worker:match=|seed=1|,attempts=0"):
            report = run_jobs(
                jobs, workers=1, policy=RetryPolicy(max_attempts=2, **FAST), return_report=True
            )
        assert not report.failures
        [victim] = [o for o in report.outcomes if o.attempts]
        assert victim.index == 1
        assert [a.kind for a in victim.attempts] == ["exception"]
        for a, b in zip(clean, report.results):
            assert _fingerprint(a) == _fingerprint(b)

    def test_persistent_fault_fails_only_that_job(self):
        jobs = _jobs(4, "gzip")
        with inject_faults("raise@worker:match=|seed=2|"):
            report = run_jobs(
                jobs, workers=1, policy=RetryPolicy(max_attempts=3, **FAST), return_report=True
            )
        assert [o.ok for o in report.outcomes] == [True, True, False, True]
        failed = report.outcomes[2]
        assert len(failed.attempts) == 3  # exhausted the policy
        assert all(a.kind == "exception" for a in failed.attempts)
        assert "FaultInjected" in failed.error

    def test_run_jobs_raises_jobs_failed_error_with_report(self):
        jobs = _jobs(2, "gzip")
        with inject_faults("raise@worker:match=|seed=0|"):
            with pytest.raises(JobsFailedError, match="1 of 2 jobs failed") as exc_info:
                run_jobs(jobs, workers=1, policy=RetryPolicy(max_attempts=2, **FAST))
        report = exc_info.value.report
        assert report.outcomes[1].ok  # the survivor completed before the raise
        assert report.outcomes[0].error is not None

    def test_survivors_are_cached_before_the_error_raises(self, tmp_path):
        from repro.analysis.result_cache import ResultCache

        jobs = _jobs(3, "gzip")
        cache = ResultCache(tmp_path)
        with inject_faults("raise@worker:match=|seed=1|"):
            with pytest.raises(JobsFailedError):
                run_jobs(jobs, workers=1, cache=cache, policy=RetryPolicy(max_attempts=2, **FAST))
        assert cache.get(jobs[0].key()) is not None
        assert cache.get(jobs[2].key()) is not None
        assert cache.get(jobs[1].key()) is None

    def test_serial_timeout_via_sigalrm(self):
        """A hang on the first attempt trips the serial deadline and the
        retry (fault gone) produces the correct result."""
        jobs = _jobs(2, "gzip")
        clean = run_jobs(jobs, workers=1)
        with inject_faults("hang@worker:match=|seed=0|,attempts=0,seconds=30"):
            report = run_jobs(
                jobs,
                workers=1,
                policy=RetryPolicy(max_attempts=2, timeout=0.5, **FAST),
                return_report=True,
            )
        assert not report.failures
        [a] = report.outcomes[0].attempts
        assert a.kind == "timeout" and "serial" in a.error
        for x, y in zip(clean, report.results):
            assert _fingerprint(x) == _fingerprint(y)

    def test_serial_timeout_enforced_off_the_main_thread(self):
        """SIGALRM cannot arm off the main thread; an overrunning job is
        still charged one timeout attempt, after the fact."""
        import threading

        box = {}

        def _run():
            with inject_faults("hang@worker:seconds=0.6"):
                box["report"] = run_jobs(
                    _jobs(1, "gzip"),
                    workers=1,
                    policy=RetryPolicy(max_attempts=1, timeout=0.2),
                    return_report=True,
                )

        thread = threading.Thread(target=_run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        [outcome] = box["report"].outcomes
        assert not outcome.ok
        [attempt] = outcome.attempts
        assert attempt.kind == "timeout" and "(serial)" in attempt.error

    def test_failures_are_journaled_with_attempt_history(self, tmp_path):
        jobs = _jobs(1, "gzip")
        journal = RunJournal(tmp_path / "j.jsonl")
        with inject_faults("raise@worker"):
            report = run_jobs(
                jobs, workers=1, journal=journal,
                policy=RetryPolicy(max_attempts=2, **FAST), return_report=True,
            )
        assert report.failures
        record = journal.failed()[jobs[0].key()]
        assert len(record["attempts"]) == 2
        assert record["attempts"][0]["kind"] == "exception"


class TestPoolChaos:
    def test_acceptance_crash_plus_hang_then_resume(self, many_cpus, tmp_path, monkeypatch):
        """The issue's acceptance scenario, end to end: a 20-job batch
        with an injected worker crash (persistent, seed 7) and an
        injected hang (transient, seed 12) must return 19 correct
        results plus one structured failure — no batch abort — and a
        resume must execute only the failed job, with every result
        bit-identical to a clean serial run."""
        jobs = _jobs(20)
        clean = run_jobs(jobs, workers=1)

        journal = RunJournal(tmp_path / "chaos.jsonl")
        plan = (
            "raise@worker:match=|seed=7|;"
            "hang@worker:match=|seed=12|,attempts=0,seconds=60"
        )
        with inject_faults(plan):
            report = run_jobs(
                jobs,
                workers=4,
                journal=journal,
                policy=RetryPolicy(max_attempts=2, timeout=3.0, **FAST),
                return_report=True,
            )

        # 19 survivors + one structured JobOutcome failure.
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert failed.index == 7
        assert len(failed.attempts) == 2
        assert "FaultInjected" in failed.error
        # The hang was detected by deadline and recovered on retry.
        hung = report.outcomes[12]
        assert hung.ok
        assert any(a.kind == "timeout" for a in hung.attempts)
        # SIGALRM ended the hang inside its worker: no worker was lost.
        assert not any("pool-worker-replaced" in d for d in report.degradations)
        # Survivors match the clean serial run bit for bit.
        for i, outcome in enumerate(report.outcomes):
            if i != 7:
                assert _fingerprint(outcome.result) == _fingerprint(clean[i])

        # Resume (faults gone): only the failed job executes.
        calls = []
        real = parallel_mod.execute_job

        def spy(job, **kwargs):
            calls.append(job)
            return real(job, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        resumed = run_jobs(jobs, workers=1, journal=RunJournal(tmp_path / "chaos.jsonl"))
        assert [job.seed for job in calls] == [7]
        for a, b in zip(clean, resumed):
            assert _fingerprint(a) == _fingerprint(b)

    def test_hard_worker_death_breaks_pool_and_recovers(self, many_cpus):
        """``os._exit`` in a worker charges the job it was running one
        pool-broken attempt, the worker is replaced, and every job still
        completes."""
        jobs = _jobs(8)
        clean = run_jobs(jobs, workers=1)
        with inject_faults("exit@worker:match=|seed=3|,attempts=0"):
            report = run_jobs(
                jobs,
                workers=4,
                policy=RetryPolicy(max_attempts=3, **FAST),
                return_report=True,
            )
        assert not report.failures
        kinds = [a.kind for o in report.outcomes for a in o.attempts]
        assert "pool-broken" in kinds
        assert any(
            d.startswith("pool-worker-replaced") and "|seed=3|" in d for d in report.degradations
        )
        for a, b in zip(clean, report.results):
            assert _fingerprint(a) == _fingerprint(b)

    def test_poison_job_exhausts_attempts_while_innocents_survive(self, many_cpus):
        """A job that kills its worker on *every* attempt must fail alone
        once its own attempts are spent."""
        jobs = _jobs(6)
        with inject_faults("exit@worker:match=|seed=2|"):
            report = run_jobs(
                jobs,
                workers=3,
                policy=RetryPolicy(max_attempts=2, **FAST),
                return_report=True,
            )
        assert [o.ok for o in report.outcomes].count(False) == 1
        assert not report.outcomes[2].ok
        # A death is charged to the job its worker was running, so
        # innocents pay at most one collateral attempt.
        for outcome in report.outcomes:
            if outcome.index != 2:
                assert len(outcome.attempts) <= 1

    def test_pool_workers_inherit_traces_instead_of_acquiring_them(
        self, many_cpus, tmp_path, monkeypatch
    ):
        """The parent acquires every trace before it forks the pool; a
        worker that built or loaded one itself would fail its job here."""
        import repro.workloads as workloads_mod
        from repro.trace.store import TraceStore

        jobs = _jobs(4, "gzip")
        clean = run_jobs(jobs, workers=1)
        parent = os.getpid()

        def parent_only(real):
            def guarded(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError("a pool worker acquired its own trace")
                return real(*args, **kwargs)

            return guarded

        monkeypatch.setattr(workloads_mod, "build_trace", parent_only(workloads_mod.build_trace))
        monkeypatch.setattr(TraceStore, "get", parent_only(TraceStore.get))
        for store in (TraceStore(tmp_path), None):
            workloads_mod.cached_trace.cache_clear()
            report = run_jobs(
                jobs, workers=2, trace_store=store, policy=NO_RETRY, return_report=True
            )
            assert not report.failures and not report.degradations
            for a, b in zip(clean, report.results):
                assert _fingerprint(a) == _fingerprint(b)

    def test_unstartable_pool_degrades_to_serial_with_event(self, many_cpus, monkeypatch):
        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no fork for you")

        monkeypatch.setattr(resilience_mod, "get_context", BrokenPool)
        jobs = _jobs(3, "gzip")
        report = run_jobs(jobs, workers=3, return_report=True)
        assert not report.failures
        assert any("serial-fallback" in d for d in report.degradations)

    def test_expired_deadline_sends_nothing_and_a_rerun_completes(self, many_cpus, tmp_path):
        """Past the sweep deadline no job is sent: every job comes back
        unclaimed and unjournaled, so a re-run on the journal does them all."""
        jobs = _jobs(6, "gzip")
        clean = run_jobs(jobs, workers=1)
        report = run_jobs(
            jobs, workers=2, deadline=0.0, journal=RunJournal(tmp_path / "j.jsonl"),
            return_report=True,
        )
        assert report.deadline_hit
        assert all(o.unclaimed and not o.attempts for o in report.outcomes)
        journal = RunJournal(tmp_path / "j.jsonl")
        assert journal.completed() == {} and journal.failed() == {}
        resumed = run_jobs(jobs, workers=2, journal=journal)
        for a, b in zip(clean, resumed):
            assert _fingerprint(a) == _fingerprint(b)

    def test_hang_no_alarm_can_interrupt_is_ended_by_the_parent(self, many_cpus, monkeypatch):
        """Without ``setitimer`` no worker can arm a deadline; the parent
        kills a worker that outlives its job's budget and charges that
        job one timeout attempt."""
        jobs = _jobs(4, "gzip")
        clean = run_jobs(jobs, workers=1)
        monkeypatch.delattr(signal, "setitimer")  # forked workers inherit this
        started = time.monotonic()
        with inject_faults("hang@worker:match=|seed=1|,attempts=0,seconds=60"):
            report = run_jobs(
                jobs, workers=2, policy=RetryPolicy(max_attempts=2, timeout=0.5),
                return_report=True,
            )
        assert time.monotonic() - started < 30
        assert not report.failures
        assert [a.kind for a in report.outcomes[1].attempts] == ["timeout"]
        for a, b in zip(clean, report.results):
            assert _fingerprint(a) == _fingerprint(b)

    def test_losing_every_worker_finishes_the_batch_serially(self, many_cpus, monkeypatch):
        """When no replacement can be forked, the dead workers' jobs are
        requeued and run serially instead of being lost."""
        jobs = _jobs(2, "gzip")
        clean = run_jobs(jobs, workers=1)
        real_context = resilience_mod.get_context
        forks = []

        class NoReplacements:  # the first two forks succeed, the rest fail
            def __init__(self, method):
                self._real = real_context(method)
                self.Pipe = self._real.Pipe

            def Process(self, **kwargs):
                forks.append(kwargs)
                if len(forks) > 2:
                    raise OSError("fork refused")
                return self._real.Process(**kwargs)

        monkeypatch.setattr(resilience_mod, "get_context", NoReplacements)
        with inject_faults("exit@worker:attempts=0"):
            report = run_jobs(
                jobs, workers=2, policy=RetryPolicy(max_attempts=2, **FAST), return_report=True
            )
        assert not report.failures
        assert [[a.kind for a in o.attempts] for o in report.outcomes] == [["pool-broken"]] * 2
        assert any("pool-worker-lost" in d for d in report.degradations)
        assert any("every pool worker lost" in d for d in report.degradations)
        for a, b in zip(clean, report.results):
            assert _fingerprint(a) == _fingerprint(b)


class TestGuardsUnderRetryPath:
    def test_nested_pool_guard_survives_the_retry_engine(self, monkeypatch):
        """Inside a pool worker, even a retried batch must stay serial."""
        monkeypatch.setenv("REPRO_POOL_WORKER", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("nested batch created a process pool")

        monkeypatch.setattr(resilience_mod, "get_context", boom)
        jobs = _jobs(3, "gzip")
        with inject_faults("raise@worker:match=|seed=1|,attempts=0"):
            report = run_jobs(
                jobs, workers=4, policy=RetryPolicy(max_attempts=2, **FAST), return_report=True
            )
        assert not report.failures
        assert report.outcomes[1].attempts  # the retry really happened, serially

    def test_worker_clamp_applies_to_the_pool_width(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seen = {}
        real_context = resilience_mod.get_context

        class SpyContext:  # counts the workers the pool forks
            def __init__(self, method):
                self._real = real_context(method)
                self.Pipe = self._real.Pipe

            def Process(self, **kwargs):
                seen["max_workers"] = seen.get("max_workers", 0) + 1
                return self._real.Process(**kwargs)

        monkeypatch.setattr(resilience_mod, "get_context", SpyContext)
        jobs = _jobs(4, "gzip")
        report = run_jobs(
            jobs, workers=512, policy=RetryPolicy(max_attempts=2, **FAST), return_report=True
        )
        assert not report.failures
        assert seen["max_workers"] == 2

    def test_empty_batch_returns_empty_report(self):
        report = execute_batch([], workers=4)
        assert report.outcomes == [] and report.degradations == []

    def test_job_token_mentions_every_identity_field(self):
        token = job_token(SimulationJob("em3d", _cfg(), N, 5))
        assert "em3d" in token and "|seed=5|" in token and f"n={N}" in token


class TestJobTokenNamesTheConfig:
    """Jobs that differ only in their config get tokens of their own."""

    def test_a_key_match_fails_one_job_of_a_history_sweep(self):
        base = SimulationConfig.paper_default(FilterKind.PA).with_warmup(WARM)
        target = SimulationJob("em3d", base.with_filter(table_entries=4096), N, 0)
        with inject_faults(f"raise@worker:match=key={target.key()[:12]}"):
            with pytest.raises(JobsFailedError) as excinfo:
                sweep_history_sizes("em3d", base, n_insts=N, policy=NO_RETRY)
        outcomes = excinfo.value.report.outcomes
        assert len(outcomes) == 5
        assert [o.key for o in outcomes if not o.ok] == [target.key()]
        assert "FaultInjected" in outcomes[2].error

    def test_eleven_sweep_configs_of_one_trace_get_eleven_tokens(self):
        base = SimulationConfig.paper_default().with_warmup(30_000).with_engine("kernel")
        grid = [base] + [
            base.with_filter(kind=kind, table_entries=entries)
            for kind in (FilterKind.PA, FilterKind.PC)
            for entries in (1024, 2048, 4096, 8192, 16384)
        ]
        tokens = {job_token(SimulationJob("em3d", cfg, 100_000, 0)) for cfg in grid}
        assert len(tokens) == len(grid) == 11

    def test_retry_jitter_differs_between_configs_of_one_trace(self):
        pa, pc = (SimulationJob("em3d", _cfg(k), N, 0) for k in (FilterKind.PA, FilterKind.PC))
        policy = RetryPolicy(**FAST)
        assert policy.delay(1, job_token(pa)) != policy.delay(1, job_token(pc))

    def test_a_journaled_serial_batch_hashes_each_job_once(self, tmp_path, monkeypatch):
        hashed = []
        real = parallel_mod.run_key

        def counting(*args, **kwargs):
            hashed.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_key", counting)
        jobs = _jobs(3)
        run_jobs(jobs, workers=1, journal=RunJournal(tmp_path / "j.jsonl"))
        assert len(hashed) == len(jobs)
