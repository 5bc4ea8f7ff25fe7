"""Fleet supervision: restarts, poison quarantine, deadline degradation.

The acceptance scenario from the issue, end to end: a 60-job shared-FS
sweep containing one poison job (kills every executor), one worker
killed mid-lease, and an injected ``enospc`` window on another worker.
A supervised drain must quarantine the poison job after at most
``threshold + 1`` executions, complete the other 59, and a subsequent
journaled re-run must be bit-identical to a clean serial run with
exactly-once accounting.

Set ``REPRO_CHAOS_ARTIFACT_DIR`` to copy the journal and quarantine
records out of the tmp dir (CI uploads them when the job fails).
"""

import os
import shutil
import time
from pathlib import Path

import pytest

from repro.analysis.backend import QueueBackend
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy
from repro.analysis.supervisor import FleetSupervisor, WORKER_EXIT_PRESSURE
from repro.analysis.workqueue import FileQueue
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

N = 1_200

FAST = RetryPolicy(max_attempts=2, backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _jobs(seeds, workload="em3d"):
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
    return [SimulationJob(workload, cfg, N, seed=s) for s in seeds]


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


def _export_artifacts(queue_root: Path, journal_path: Path) -> None:
    """Copy forensics somewhere CI can upload them (no-op locally)."""
    dest = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR")
    if not dest:
        return
    dest_dir = Path(dest)
    dest_dir.mkdir(parents=True, exist_ok=True)
    quarantine = queue_root / "quarantine"
    if quarantine.is_dir():
        shutil.copytree(quarantine, dest_dir / "quarantine", dirs_exist_ok=True)
    logs = queue_root / "logs"
    if logs.is_dir():
        shutil.copytree(logs, dest_dir / "logs", dirs_exist_ok=True)
    if journal_path.is_file():
        shutil.copy(journal_path, dest_dir / journal_path.name)


# ----------------------------------------------------------------------
# Supervisor unit behaviour
# ----------------------------------------------------------------------
def test_supervisor_drains_a_clean_queue(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    queue.submit(_jobs(range(4)))
    report = FleetSupervisor(queue, workers=2, batch=2, poll=0.05, worker_poll=0.05).run()
    assert report.drained and report.stopped == "drained"
    assert report.restarts == 0 and report.retired_slots == 0
    assert queue.counts()["done"] == 4
    assert report.counts["poisoned"] == 0
    assert report.elapsed_s > 0


def test_supervisor_classifies_pressure_exits_and_recovers(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    queue.submit(_jobs(range(3)))
    # only slot 0's first incarnation sees a full disk; its replacement
    # (fresh name, fresh guard) drains normally
    with inject_faults("enospc@pressure:match=s0r0"):
        report = FleetSupervisor(
            queue, workers=1, batch=1, poll=0.05, worker_poll=0.05, backoff_base=0.05
        ).run()
    assert report.drained
    assert report.pressure_restarts == 1 and report.crash_restarts == 0
    assert WORKER_EXIT_PRESSURE in report.slot_exit_codes[0]
    assert queue.counts()["done"] == 3


def test_supervisor_retires_an_exhausted_fleet(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=0.5)
    queue.submit(_jobs(range(2)))
    with inject_faults("exit@worker-death"):  # every execution is fatal
        report = FleetSupervisor(
            queue, workers=1, batch=1, poll=0.05, worker_poll=0.05,
            max_restarts=1, backoff_base=0.05,
        ).run()
    assert report.stopped == "fleet-exhausted"
    assert not report.drained
    assert report.crash_restarts == 1 and report.retired_slots == 1
    assert any("restart budget" in e for e in report.events)


def test_supervisor_deadline_stops_the_fleet(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    queue.submit(_jobs(range(5)))
    report = FleetSupervisor(
        queue, workers=1, batch=1, poll=0.05, worker_poll=0.05, deadline=0.0
    ).run()
    assert report.deadline_hit and report.stopped == "deadline"
    assert not report.drained
    assert queue.counts()["done"] == 0  # workers got --deadline 0: claimed nothing
    assert queue.outstanding() == (5, 0)  # and left the queue clean for a resume


def test_supervisor_rejects_nonsense(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_ttl=5.0)
    with pytest.raises(ValueError):
        FleetSupervisor(queue, workers=0)
    with pytest.raises(ValueError):
        FleetSupervisor(queue, workers=1, max_restarts=-1)
    with pytest.raises(ValueError):
        FleetSupervisor(queue, workers=1, deadline=-2.0)


# ----------------------------------------------------------------------
# Deadline-bounded partial results (serial and shared-fs)
# ----------------------------------------------------------------------
def test_expired_deadline_yields_unclaimed_not_failed(tmp_path):
    jobs = _jobs(range(4))
    journal = RunJournal(tmp_path / "j.jsonl")
    report = run_jobs(
        jobs, workers=1, journal=journal, policy=FAST, deadline=0.0, return_report=True
    )
    assert report.deadline_hit
    assert all(o.unclaimed and not o.ok and not o.attempts for o in report.outcomes)
    partial = report.partial_results()
    assert partial == {
        "total": 4, "completed": 0, "failed": 0, "quarantined": 0,
        "unclaimed": 4, "by_domain": {"unclaimed": 4}, "deadline_hit": True,
    }
    # unclaimed jobs are deliberately NOT journaled: the resume runs them
    assert len(journal.load()) == 0
    results = run_jobs(jobs, workers=1, journal=journal, policy=FAST)
    assert len(results) == 4 and journal.appended == 4


def test_shared_fs_deadline_degrades_then_resume_completes(tmp_path):
    jobs = _jobs(range(6))
    serial = [_fingerprint(r) for r in run_jobs(jobs, workers=1, policy=FAST)]
    journal = RunJournal(tmp_path / "j.jsonl")
    backend = QueueBackend(
        queue_dir=tmp_path / "q", spawn=0, lease_ttl=5.0, batch=2, poll=0.05, deadline=0.0
    )
    report = run_jobs(
        jobs, workers=1, journal=journal, policy=FAST, backend=backend, return_report=True
    )
    assert report.deadline_hit
    assert sum(1 for o in report.outcomes if o.unclaimed) == 6
    assert any("unclaimed" in e for e in report.degradations)
    # resume against the same queue dir: completes, bit-identical to serial
    resumed = QueueBackend(
        queue_dir=tmp_path / "q", spawn=0, lease_ttl=5.0, batch=2, poll=0.05
    )
    results = run_jobs(jobs, workers=1, journal=journal, policy=FAST, backend=resumed)
    assert [_fingerprint(r) for r in results] == serial


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
def test_supervised_sweep_survives_poison_death_and_pressure(tmp_path):
    seeds = list(range(59)) + [777]  # seed 777 is the poison job
    jobs = _jobs(seeds)
    serial = [_fingerprint(r) for r in run_jobs(jobs, workers=1, policy=FAST)]

    journal = RunJournal(tmp_path / "journal.jsonl")
    queue_root = tmp_path / "queue"
    backend = QueueBackend(
        queue_dir=queue_root, spawn=3, lease_ttl=0.5, batch=2, poll=0.05,
        poison_threshold=2, supervise=True, max_restarts=8,
    )
    plan = ";".join([
        # the poison job: every worker that reaches it dies mid-lease
        "exit@worker-death:match=seed=777|",
        # one ordinary mid-lease death: slot 1's first incarnation, on
        # its second execution, whatever job that happens to be
        "exit@worker-death:match=s1r0,attempts=1",
        # one pressure window: slot 2's first incarnation sees a full
        # disk and must drain-and-exit 75, not crash
        "enospc@pressure:match=s2r0",
    ])
    try:
        with inject_faults(plan):
            report = run_jobs(
                jobs, workers=1, journal=journal, policy=FAST,
                backend=backend, return_report=True,
            )

        # 59 jobs completed despite the chaos; exactly the poison job did not
        ok = [o for o in report.outcomes if o.ok]
        assert len(ok) == 59
        (poisoned,) = [o for o in report.outcomes if o.quarantined]
        assert jobs[poisoned.index].seed == 777
        assert not poisoned.ok
        assert poisoned.attempts[-1].kind == "poisoned"
        assert not report.deadline_hit
        partial = report.partial_results()
        assert partial["completed"] == 59 and partial["quarantined"] == 1
        assert partial["by_domain"] == {"poisoned": 1}

        # quarantine forensics: sealed record, bounded execution count
        queue = FileQueue(queue_root, lease_ttl=0.5, poison_threshold=2)
        records = queue.collect_quarantined()
        assert len(records) == 1
        (record,) = records.values()
        assert "seed=777|" in record["token"]
        assert record["executions"] <= 3  # threshold + 1: the poison stopped spreading
        assert "poison job" in record["reason"]
        assert record["last_owner"]  # the incarnation that died last
        assert queue.counts()["poisoned"] == 1
        assert queue.outstanding() == (0, 0)

        # supervisor telemetry: it saw the deaths and the pressure exit
        sup = backend.last_supervisor
        assert sup["crash_restarts"] >= 2  # poison deaths + the s1r0 kill
        assert sup["pressure_restarts"] >= 1  # s2r0's clean 75
        assert sup["stopped"] == "drained"
        assert any("quarantined" in e for e in sup["events"])

        # resume without the chaos: 59 from the journal (exactly once), the
        # quarantined job re-runs and completes, bit-identical to serial
        resumed = run_jobs(
            jobs, workers=1, journal=journal, policy=FAST, return_report=True
        )
        assert [_fingerprint(o.result) for o in resumed.outcomes] == serial
        assert sum(1 for o in resumed.outcomes if o.from_journal) == 59
        fresh = [o for o in resumed.outcomes if not o.from_journal]
        assert len(fresh) == 1 and jobs[fresh[0].index].seed == 777
    finally:
        _export_artifacts(queue_root, journal.path)
