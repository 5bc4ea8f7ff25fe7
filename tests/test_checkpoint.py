"""Run journal: crash consistency, resume semantics, CLI wiring."""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.analysis.checkpoint as checkpoint_mod
import repro.analysis.parallel as parallel_mod
import repro.analysis.result_cache as result_cache_mod
from repro.analysis.checkpoint import (
    RunJournal,
    journal_path,
    new_run_id,
    record_intact,
    runs_dir,
    seal_record,
)
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.result_cache import ResultCache, payload_digest, result_to_dict
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

N = 3_000
WARM = 1_000


def _cfg(kind=FilterKind.NONE):
    return SimulationConfig.paper_default(kind).with_warmup(WARM)


@pytest.fixture(scope="module")
def result():
    """One real simulation result to journal (tiny, computed once)."""
    [r] = run_jobs([SimulationJob("em3d", _cfg(), N, 0)], workers=1)
    return r


@pytest.fixture(scope="module")
def digest(result):
    """The payload digest a result store returns for ``result``."""
    return payload_digest(result_to_dict(result))


def _digests(results):
    """Every result's full payload digest, in order."""
    return [payload_digest(result_to_dict(r)) for r in results]


def _fingerprint(result):
    return (
        result.trace_name,
        result.cycles,
        result.instructions,
        result.prefetch,
        tuple(sorted(result.stats.flat().items())),
    )


class TestJournalBasics:
    def test_new_run_id_shape_and_uniqueness(self):
        ids = {new_run_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(i.startswith("run-") for i in ids)

    def test_journal_path_respects_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert runs_dir() == tmp_path / "runs"
        assert journal_path("run-abc") == tmp_path / "runs" / "run-abc.jsonl"

    def test_missing_file_is_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "nope.jsonl")
        assert journal.load() == {}
        assert journal.completed() == {}
        assert len(journal) == 0

    def test_success_roundtrip(self, tmp_path, digest):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_success("k1", digest)
        back = RunJournal(tmp_path / "j.jsonl").completed()
        assert set(back) == {"k1"}
        assert back["k1"] == digest

    def test_failures_recorded_but_not_completed(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_failure("k1", "boom", [{"attempt": 0, "kind": "exception"}])
        assert journal.completed() == {}
        failed = journal.failed()
        assert failed["k1"]["error"] == "boom"
        assert failed["k1"]["attempts"][0]["kind"] == "exception"

    def test_last_writer_wins(self, tmp_path, digest):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_failure("k1", "first try died")
        journal.record_success("k1", digest)
        assert set(journal.completed()) == {"k1"}
        assert journal.failed() == {}
        assert len(journal) == 1  # one key, despite two appended lines


class TestCrashConsistency:
    def test_torn_tail_is_tolerated(self, tmp_path, digest):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_success("k1", digest)
        journal.record_success("k2", digest)
        with open(journal.path, "a") as fh:
            fh.write('{"key": "k3", "ok": true, "result": {"trun')  # torn mid-write
        back = RunJournal(journal.path)
        assert set(back.completed()) == {"k1", "k2"}

    def test_foreign_lines_are_skipped(self, tmp_path, digest):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_success("k1", digest)
        with open(journal.path, "a") as fh:
            fh.write("\n")  # blank
            fh.write("[1, 2, 3]\n")  # valid JSON, wrong shape
            fh.write(json.dumps({"ok": True}) + "\n")  # missing key field
        assert set(RunJournal(journal.path).load()) == {"k1"}

    def test_success_with_garbled_result_not_treated_as_done(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        with open(journal.path, "w") as fh:
            fh.write(json.dumps({"key": "k1", "ok": True, "result": {"nope": 1}}) + "\n")
        assert RunJournal(journal.path).completed() == {}

    def test_every_append_lands_on_disk_immediately(self, tmp_path, digest):
        """The crash contract: a record is durable the moment the call
        returns — a *different* handle must see it with no close/flush."""
        journal = RunJournal(tmp_path / "j.jsonl")
        for i in range(3):
            journal.record_success(f"k{i}", digest)
            assert len(RunJournal(journal.path)) == i + 1

    def test_commit_fsyncs_once_for_everything_appended_since_the_last(
        self, tmp_path, monkeypatch, digest
    ):
        fsyncs = []
        monkeypatch.setattr(checkpoint_mod.os, "fsync", fsyncs.append)
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.commit()
        assert fsyncs == []  # nothing appended yet
        for i in range(3):
            journal.record_success(f"k{i}", digest)
        journal.commit()
        journal.commit()
        assert len(fsyncs) == 1
        journal.record_failure("k3", "boom")
        journal.commit()
        assert len(fsyncs) == 2
        assert journal.commit_errors == []


def _eio(fd):
    raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestFailedCommit:
    """An ``fsync`` error at commit is counted and reported, never raised:
    every line is already written, so the batch's results stand."""

    def test_run_jobs_keeps_every_result_and_counts_the_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint_mod.os, "fsync", _eio)
        jobs = [SimulationJob("gzip", _cfg(), N, s) for s in range(3)]
        journal = RunJournal(tmp_path / "j.jsonl")
        results = run_jobs(jobs, workers=1, journal=journal)
        assert len(results) == len(jobs)
        assert [journal.store.get(job.key())[1] for job in jobs] == _digests(results)
        assert set(journal.completed()) == {job.key() for job in jobs}
        assert [e.errno for e in journal.commit_errors] == [errno.EIO]

    @pytest.mark.parametrize("plan, code", [("", 0), ("raise@worker", 1)])
    def test_sweep_reports_the_failure_on_stderr(
        self, tmp_path, monkeypatch, capsys, plan, code
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(checkpoint_mod.os, "fsync", _eio)
        argv = ["sweep", "--workload", "em3d", "--what", "history", "--insts", str(N),
                "--retries", "0"]
        with inject_faults(plan):
            assert main(argv) == code
        captured = capsys.readouterr()
        assert ("history-size sweep" in captured.out) == (code == 0)
        [line] = [x for x in captured.err.splitlines() if "Input/output error" in x]
        assert line.startswith("journal commit: 1 fsync(s) failed")


class TestKilledSweep:
    """A sweep killed mid-batch never reaches its commit, yet every line
    it wrote is intact, and the resume runs only the rest."""

    K = 2  # journal lines to wait for before the kill
    ARGV = ["sweep", "--workload", "em3d", "--what", "history", "--insts", str(N)]

    def _sweep_until_killed(self, cache_dir):
        # The history sweep's five jobs share one fault token (it names the
        # workload, engine and seed, not the table size), so the plan holds
        # every job for a second before it runs: once the journal has K
        # lines, job K is in its hang and the batch is far from its commit.
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   REPRO_FAULTS="hang@worker:seconds=1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.ARGV], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                paths = list((cache_dir / "runs").glob("run-*.jsonl"))
                if paths and paths[0].read_text().count("\n") >= self.K:
                    break
                assert proc.poll() is None, proc.communicate()[0].decode()
                time.sleep(0.01)
            else:
                pytest.fail(f"the journal never reached {self.K} lines")
            assert proc.poll() is None  # still mid-batch: no commit has run
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=10) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        return RunJournal(paths[0])

    def test_sigkill_before_commit_loses_no_line(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        journal = self._sweep_until_killed(tmp_path / "killed")
        lines = journal.path.read_text().splitlines()
        # The kill lands in a hang that outlasts the poll by far; ``>=``
        # only keeps a stalled poll from failing the test.
        assert self.K <= len(lines) < 5
        records = [json.loads(line) for line in lines]
        assert all(record_intact(r) and r["ok"] for r in records)
        assert set(journal.completed()) == {r["key"] for r in records}
        assert set(journal.resumable()) == {r["key"] for r in records}

        calls = []
        real = parallel_mod.execute_job

        def spy(job, **kwargs):
            calls.append(job.key())
            return real(job, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "killed"))
        run_id = journal.path.stem
        assert main(self.ARGV + ["--resume", run_id]) == 0
        resumed = capsys.readouterr().out
        assert f"resuming {run_id}: {len(lines)} job(s) already journaled" in resumed
        assert len(calls) == 5 - len(lines)
        assert not {r["key"] for r in records} & set(calls)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        assert main(self.ARGV) == 0
        clean = capsys.readouterr().out
        [clean_journal] = (tmp_path / "clean" / "runs").glob("run-*.jsonl")
        assert RunJournal(journal.path).completed() == RunJournal(clean_journal).completed()
        assert clean[: clean.index("run id:")] in resumed


class TestResumeThroughRunJobs:
    def test_journaled_jobs_are_never_reexecuted(self, tmp_path, monkeypatch):
        jobs = [SimulationJob("gzip", _cfg(), N, s) for s in range(3)]
        journal = RunJournal(tmp_path / "j.jsonl")
        first = run_jobs(jobs, workers=1, journal=journal)

        calls = []

        def spy(job):
            calls.append(job)
            raise AssertionError("journaled job was re-executed")

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        again = run_jobs(jobs, workers=1, journal=RunJournal(tmp_path / "j.jsonl"))
        assert calls == []
        for a, b in zip(first, again):
            assert _fingerprint(a) == _fingerprint(b)

    def test_resume_runs_only_the_missing_jobs(self, tmp_path):
        jobs = [SimulationJob("gzip", _cfg(), N, s) for s in range(4)]
        journal = RunJournal(tmp_path / "j.jsonl")
        run_jobs(jobs[:2], workers=1, journal=journal)  # "crashed" after two

        report = run_jobs(
            jobs, workers=1, journal=RunJournal(tmp_path / "j.jsonl"), return_report=True
        )
        assert [o.from_journal for o in report.outcomes] == [True, True, False, False]
        executed = [o for o in report.outcomes if o.executed]
        assert len(executed) == 2

    def test_cache_hits_are_backfilled_into_the_journal(self, tmp_path):
        from repro.analysis.result_cache import ResultCache

        jobs = [SimulationJob("gzip", _cfg(), N, 0)]
        cache = ResultCache(tmp_path / "cache")
        run_jobs(jobs, workers=1, cache=cache)  # warm the cache, no journal

        journal = RunJournal(tmp_path / "j.jsonl")
        run_jobs(jobs, workers=1, cache=cache, journal=journal)
        # The journal names the cache's payload, so a resume on that
        # store replays the run.
        assert set(RunJournal(journal.path).completed()) == {jobs[0].key()}
        report = run_jobs(
            jobs, workers=1, cache=cache, journal=RunJournal(journal.path), return_report=True
        )
        assert report.outcomes[0].from_journal


class TestResumeFromTheStore:
    """The journal names each payload by digest and the result store holds
    it: whatever the store lost or garbled re-runs, and the final payloads
    equal a clean serial run's."""

    JOBS = [SimulationJob("gzip", _cfg(), N, s) for s in range(3)]

    @pytest.fixture(scope="class")
    def clean(self):
        return _digests(run_jobs(self.JOBS, workers=1))

    def test_budget_evicted_entry_reruns_exactly_that_job(self, tmp_path, clean):
        sizing = ResultCache(tmp_path / "sizing")
        run_jobs(self.JOBS, workers=1, cache=sizing)
        budget = sum(p.stat().st_size for p in sizing.directory.glob("*.json")) - 1
        cache = ResultCache(tmp_path / "cache", budget=budget)
        journal = RunJournal(tmp_path / "j.jsonl")
        run_jobs(self.JOBS, workers=1, cache=cache, journal=journal)
        assert cache.evicted == 1
        stored = {p.stem for p in cache.directory.glob("*.json")}
        [evicted] = [job.key() for job in self.JOBS if job.key() not in stored]

        report = run_jobs(
            self.JOBS, workers=1, cache=ResultCache(cache.directory, budget=budget),
            journal=RunJournal(journal.path), return_report=True,
        )
        assert [o.executed for o in report.outcomes] == [
            o.key == evicted for o in report.outcomes
        ]
        assert sum(o.from_journal for o in report.outcomes) == len(self.JOBS) - 1
        assert _digests(report.results) == clean

    def test_corrupt_store_entry_is_quarantined_and_rerun(self, tmp_path, clean):
        journal = RunJournal(tmp_path / "j.jsonl")
        with inject_faults(f"corrupt-artifact@cache:match={self.JOBS[1].key()}"):
            run_jobs(self.JOBS, workers=1, journal=journal)
        resumed = RunJournal(journal.path)
        report = run_jobs(self.JOBS, workers=1, journal=resumed, return_report=True)
        assert resumed.store.quarantined == 1
        assert [o.executed for o in report.outcomes] == [False, True, False]
        assert _digests(report.results) == clean

    def test_intact_entry_with_another_digest_reruns(self, tmp_path, clean):
        journal = RunJournal(tmp_path / "j.jsonl")
        run_jobs(self.JOBS, workers=1, journal=journal)
        entries = journal.store.directory
        # A sealed entry, but another job's payload: not what the journal names.
        shutil.copy(entries / f"{self.JOBS[0].key()}.json", entries / f"{self.JOBS[2].key()}.json")
        report = run_jobs(
            self.JOBS, workers=1, journal=RunJournal(journal.path), return_report=True
        )
        assert [o.executed for o in report.outcomes] == [False, False, True]
        assert _digests(report.results) == clean

    def test_old_format_success_lines_rerun(self, tmp_path, clean):
        journal = RunJournal(tmp_path / "j.jsonl")
        with open(journal.path, "w") as fh:
            for job, r in zip(self.JOBS, run_jobs(self.JOBS, workers=1)):
                record = {"key": job.key(), "ok": True, "result": result_to_dict(r)}
                fh.write(json.dumps(seal_record(record)) + "\n")
        assert journal.completed() == {}
        report = run_jobs(self.JOBS, workers=1, journal=journal, return_report=True)
        assert all(o.executed and not o.from_journal for o in report.outcomes)
        assert _digests(report.results) == clean
        assert set(RunJournal(journal.path).completed()) == {job.key() for job in self.JOBS}

    def test_each_executed_job_is_serialised_once(self, tmp_path, monkeypatch):
        calls = []
        real = result_cache_mod.result_to_dict

        def counting(result):
            calls.append(result)
            return real(result)

        monkeypatch.setattr(result_cache_mod, "result_to_dict", counting)
        monkeypatch.setattr(checkpoint_mod, "result_to_dict", counting)
        report = run_jobs(
            self.JOBS, workers=1, cache=ResultCache(tmp_path / "cache"),
            journal=RunJournal(tmp_path / "j.jsonl"), return_report=True,
        )
        assert all(o.executed for o in report.outcomes)
        assert len(calls) == len(self.JOBS)


class TestSweepResumeCLI:
    def test_sweep_prints_run_id_and_resume_skips_done_jobs(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--workload", "gzip", "--what", "ports", "--insts", str(N)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run id: run-" in out
        run_id = out.rsplit("run id: ", 1)[1].split()[0]
        first_table = out[: out.index("run id:")]

        # The journal carries digests only; the payloads are in the run's
        # own store, under the digests the journal names.
        journal = RunJournal.for_run(run_id)
        records = [json.loads(line) for line in journal.path.read_text().splitlines()]
        assert records
        assert all(set(r) == {"key", "ok", "digest", "v", "sha256"} for r in records)
        done = journal.completed()
        assert {key: journal.store.get(key)[1] for key in done} == done

        calls = []
        real = parallel_mod.execute_job

        def spy(job, **kwargs):
            calls.append(job)
            return real(job, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        assert main(argv + ["--resume", run_id]) == 0
        out = capsys.readouterr().out
        assert calls == []  # every job replayed from the journal
        assert f"resuming {run_id}" in out
        assert first_table in out  # identical table from journaled results

    def test_resume_banner_counts_only_jobs_the_store_still_holds(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--workload", "gzip", "--what", "ports", "--insts", str(N)]
        assert main(argv) == 0
        run_id = capsys.readouterr().out.rsplit("run id: ", 1)[1].split()[0]
        journal = RunJournal.for_run(run_id)
        done = journal.completed()
        lost = sorted(done)[0]
        (journal.store.directory / f"{lost}.json").unlink()

        calls = []
        real = parallel_mod.execute_job

        def spy(job, **kwargs):
            calls.append(job.key())
            return real(job, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        assert main(argv + ["--resume", run_id]) == 0
        out = capsys.readouterr().out
        assert f"resuming {run_id}: {len(done) - 1} job(s) already journaled" in out
        assert "1 journaled job(s) have no matching stored result" in out
        assert calls == [lost]

    @pytest.mark.parametrize("what", ["history", "ports"])
    def test_sweep_runs_the_engine_it_is_given(self, tmp_path, monkeypatch, capsys, what):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--workload", "em3d", "--what", what, "--insts", str(N), "--engine", "kernel"]
        assert main(argv) == 0
        run_id = capsys.readouterr().out.rsplit("run id: ", 1)[1].split()[0]
        journal = RunJournal.for_run(run_id)
        stored = [journal.store.get(key)[0] for key in journal.completed()]
        assert stored
        assert all("pipeline.kernel_mode_id" in r.stats.flat() for r in stored)

    @pytest.mark.parametrize("what", ["history", "ports"])
    def test_sweep_sanitize_reaches_every_job(self, tmp_path, monkeypatch, capsys, what):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []
        real = parallel_mod.execute_job

        def spy(job, **kwargs):
            calls.append(job)
            return real(job, **kwargs)

        monkeypatch.setattr(parallel_mod, "execute_job", spy)
        argv = ["sweep", "--workload", "em3d", "--what", what, "--insts", str(N), "--sanitize"]
        assert main(argv) == 0
        assert calls
        assert all(job.config.sanitize for job in calls)

    @pytest.mark.parametrize("engine", ["kernel", "pipeline"])
    def test_ports_sweep_says_when_its_rows_cannot_differ(
        self, tmp_path, monkeypatch, capsys, engine
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--workload", "em3d", "--what", "ports", "--insts", str(N)]
        argv += ["--engine", engine]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "L1-port sweep" in captured.out
        noted = "models neither L1 port contention nor L1 latency" in captured.err
        assert noted == (engine == "kernel")


class TestInterleavedWriters:
    """Two workers appending to one journal, as a shared-FS drain does."""

    @staticmethod
    def _line(record):
        from repro.analysis.checkpoint import seal_record

        return json.dumps(seal_record(record), separators=(",", ":")) + "\n"

    def test_interleaved_appends_with_a_torn_tail_replay_cleanly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            # worker A fails k1; B lands k2; B retries k1 and wins
            # (last writer wins); A lands k3; then A dies mid-write,
            # tearing the k4 line.
            fh.write(self._line({
                "key": "k1", "ok": False, "error": "boom",
                "attempts": [{"attempt": 0, "kind": "exception", "error": "boom"}],
            }))
            fh.write(self._line({"key": "k2", "ok": True, "result": {"w": "em3d"}}))
            fh.write(self._line({"key": "k1", "ok": True, "result": {"w": "em3d"}}))
            fh.write(self._line({"key": "k3", "ok": True, "result": {"w": "em3d"}}))
            fh.write('{"key": "k4", "ok": true, "res')  # torn tail, no newline
        journal = RunJournal(path)
        records = journal.load()
        assert set(records) == {"k1", "k2", "k3"}
        assert records["k1"]["ok"] is True  # B's retry superseded A's failure
        assert journal.quarantined == 0  # torn != tampered: no digest mismatch
        assert journal.failed() == {}

    def test_domains_histogram_reads_the_latest_record_per_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            fh.write(self._line({
                "key": "k1", "ok": False, "error": "t",
                "attempts": [{"attempt": 0, "kind": "timeout", "error": "t"}],
            }))
            fh.write(self._line({
                "key": "k2", "ok": False, "error": "t",
                "attempts": [{"attempt": 0, "kind": "timeout", "error": "t"}],
            }))
            fh.write(self._line({
                "key": "k3", "ok": False, "error": "p",
                "attempts": [{"attempt": 0, "kind": "poisoned", "error": "p"}],
            }))
            fh.write(self._line({"key": "k4", "ok": False, "error": "?"}))  # no attempts
            fh.write(self._line({"key": "k1", "ok": True, "result": {"w": "em3d"}}))
        journal = RunJournal(path)
        assert journal.domains() == {"timeout": 1, "poisoned": 1, "exception": 1}
