"""Broker chaos at process scale: kill -9 the broker mid-sweep, resume.

The acceptance scenario from the issue, end to end: a 40-job ``tcp``
sweep through a real ``repro-sim broker`` subprocess, with client-side
connection resets and stalls, a broker-side partition window, and one
SIGKILL of the broker while jobs are in flight.  The interrupted sweep
must degrade to honest unclaimed outcomes (nothing journaled), and one
journaled resume against a *restarted* broker on the same queue
directory must converge bit-identical to a clean serial run — with the
work finished before the kill collected from disk, not re-executed.

Set ``REPRO_CHAOS_ARTIFACT_DIR`` to copy the journal and queue
forensics out of the tmp dir (CI uploads them when the job fails).
"""

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.analysis.backend import QueueBackend
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

N = 1_200

FAST = RetryPolicy(max_attempts=2, backoff_base=0.02, backoff_max=0.1, jitter=0.25)
NET_FAST = RetryPolicy(max_attempts=5, backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _jobs():
    """40 distinct jobs: two workloads x two filters x table sizes."""
    sizes = (1024, 2048, 4096, 8192, 16384)
    jobs = []
    for workload in ("em3d", "mcf"):
        for kind in (FilterKind.PA, FilterKind.PC):
            cfg = SimulationConfig.paper_default(kind).with_warmup(N // 4)
            for i, size in enumerate(sizes * 2):
                jobs.append(SimulationJob(
                    workload, cfg.with_filter(table_entries=size), N, seed=i // 5,
                ))
    assert len(jobs) == 40
    return jobs


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
    dest_dir = Path(dest) / "broker"
    dest_dir.mkdir(parents=True, exist_ok=True)
    for sub in ("quarantine", "logs", "broker"):
        src = queue_root / sub
        if src.is_dir():
            shutil.copytree(src, dest_dir / sub, dirs_exist_ok=True)
    if journal_path.is_file():
        shutil.copy(journal_path, dest_dir / journal_path.name)


def _start_broker(queue_dir: Path, extra_env=None) -> subprocess.Popen:
    """Start ``repro-sim broker`` on a free port; return the live proc
    with ``.port`` set from its announcement line."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "broker",
         "--queue-dir", str(queue_dir), "--listen", "127.0.0.1:0",
         "--lease-ttl", "2.0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"broker died on startup (exit {proc.wait()})")
        if line.startswith("broker listening on "):
            proc.port = int(line.rsplit(":", 1)[1])
            return proc
    proc.kill()
    raise RuntimeError("broker never announced its port")


def _stop_broker(proc) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def test_tcp_sweep_survives_broker_sigkill_and_resumes(tmp_path):
    jobs = _jobs()
    serial = [_fingerprint(r) for r in run_jobs(jobs, workers=1, policy=FAST)]

    journal = RunJournal(tmp_path / "journal.jsonl")
    queue_root = tmp_path / "queue"
    # broker-side chaos: its 30th request opens a 0.1s partition window
    # (every connection reset on sight until it heals)
    broker = _start_broker(queue_root, extra_env={
        "REPRO_FAULTS": "partition@network:match=broker|,attempts=30,seconds=0.1",
        "REPRO_FAULT_SEED": "7",
    })
    killed = threading.Event()

    def _kill_when_partially_done():
        # SIGKILL the broker once real work has landed but plenty is
        # still in flight — no shutdown handler runs, as in a crash
        done_dir = queue_root / "done"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and not killed.is_set():
            if done_dir.is_dir() and len(list(done_dir.glob("*.json"))) >= 8:
                os.kill(broker.pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.05)

    killer = threading.Thread(target=_kill_when_partially_done, daemon=True)
    # client-side chaos: every first attempt of claim/complete is reset
    # mid-call, and outstanding polls stall briefly — all must be
    # retried/replayed without duplicating anything
    client_plan = ";".join([
        "conn-reset@network:match=client|claim,attempts=0",
        "conn-reset@network:match=client|complete,attempts=0",
        "stall@network:match=client|outstanding,attempts=0,seconds=0.02",
    ])
    os.environ["REPRO_NET_RETRIES"] = "3"  # spawned workers give up fast
    try:
        with inject_faults(client_plan, seed=11):
            backend = QueueBackend(
                broker=f"127.0.0.1:{broker.port}", spawn=2, batch=2,
                poll=0.05, retry=NET_FAST,
            )
            killer.start()
            report = run_jobs(
                jobs, workers=1, journal=journal, policy=FAST,
                backend=backend, return_report=True,
            )
        killed.set()  # stop the killer if it somehow never fired
        killer.join(timeout=5.0)
        time.sleep(0.1)  # let the SIGKILLed broker become reapable
        assert broker.poll() is not None, "broker was not killed mid-sweep"

        # the interrupted sweep is honest: the broker died, so nothing
        # was collected, nothing journaled, everything resumable
        assert any("unreachable" in d or "unclaimed" in d for d in report.degradations)
        unclaimed = sum(1 for o in report.outcomes if o.unclaimed)
        assert unclaimed == 40
        assert len(journal.load()) == 0
        # the lossy link was ridden out while the broker lived
        assert report.transport["retried_calls"] > 0
        assert report.transport["reconnects"] > 0
        assert report.transport["replayed_ops"] > 0

        # work finished before the kill survived on the broker's disk
        done_before = {p.name: p.read_bytes() for p in (queue_root / "done").glob("*.json")}
        assert len(done_before) >= 8

        # restart the broker on the SAME queue directory, no chaos, and
        # resume: exactly the missing work runs, convergence is
        # bit-identical, and the journal records each job exactly once
        broker2 = _start_broker(queue_root)
        try:
            resumed_backend = QueueBackend(
                broker=f"127.0.0.1:{broker2.port}", spawn=2, batch=2,
                poll=0.05, retry=NET_FAST,
            )
            resumed = run_jobs(
                jobs, workers=1, journal=journal, policy=FAST,
                backend=resumed_backend, return_report=True,
            )
            assert [_fingerprint(o.result) for o in resumed.outcomes] == serial
            assert resumed.transport["broker_restarts"] == 1
            assert not any(o.from_journal for o in resumed.outcomes)
            entries = journal.load()
            assert len(entries) == 40  # exactly once, no duplicates
            # pre-kill results were collected, not re-executed: their
            # sealed records are byte-identical (a re-run would reseal
            # with fresh attempt timings)
            for name, payload in done_before.items():
                assert (queue_root / "done" / name).read_bytes() == payload
        finally:
            _stop_broker(broker2)
    finally:
        os.environ.pop("REPRO_NET_RETRIES", None)
        killed.set()
        _stop_broker(broker)
        _export_artifacts(queue_root, journal.path)
