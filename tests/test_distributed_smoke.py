"""Distributed smoke: two real worker processes drain a 200+ job sweep.

This is the end-to-end distributed story in one test module: a parent
submits a large sweep to a shared-filesystem queue, two independent
``repro-sim worker`` processes (separate interpreters, no shared state
beyond the queue directory) drain it cooperatively, and the merged
done-records feed a :class:`RunJournal` that a subsequent in-process
``run_jobs`` accepts wholesale — with spot-checked jobs bit-identical
to direct serial execution.

The sweep gate drains one table-geometry grid four ways (serially,
through a shared directory with and without a spawned worker, and
through an in-process broker with a spawned worker) and holds every
drain to bit identity with the serial one, to clean queue, cache and
transport health, and to a throughput floor.

CI runs this module as its own "distributed" job; it also rides along
in the tier-1 suite because it only needs ``python`` and a tmpdir.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.backend import QueueBackend
from repro.analysis.checkpoint import RunJournal
from repro.analysis.metrics import geometric_mean
from repro.analysis.netqueue import Broker
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.result_cache import ResultCache, result_from_dict, result_to_dict
from repro.analysis.workqueue import FileQueue
from repro.common.config import FilterKind, SimulationConfig

N = 600  # tiny per-job workloads: the point is job *count*, not length

SIZES = (128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
BITS = (2, 3, 4, 5, 6)
KINDS = (FilterKind.PA, FilterKind.PC)
WORKLOADS = ("em3d", "mcf")


def _sweep_jobs(n):
    """``n`` distinct-key jobs over only TWO traces (one per workload).

    All the variation lives in filter geometry, so workers can amortize
    trace acquisition across nearly every job in a claimed batch.
    """
    jobs = []
    for i in range(n):
        workload = WORKLOADS[i % len(WORKLOADS)]
        kind = KINDS[(i // len(WORKLOADS)) % len(KINDS)]
        cfg = SimulationConfig.paper_default(kind).with_warmup(N // 4)
        cfg = cfg.with_filter(
            table_entries=SIZES[(i // (len(WORKLOADS) * len(KINDS))) % len(SIZES)],
            counter_bits=BITS[(i // (len(WORKLOADS) * len(KINDS) * len(SIZES))) % len(BITS)],
        )
        jobs.append(SimulationJob(workload, cfg, N, seed=0))
    assert len({j.key() for j in jobs}) == n
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


def _spawn_worker(queue_dir, name):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_BACKEND", None)
    cmd = [
        sys.executable, "-m", "repro.cli", "worker",
        "--queue-dir", str(queue_dir),
        "--name", name,
        "--batch", "16",
        "--lease-ttl", "10.0",
        "--poll", "0.1",
    ]
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def test_two_workers_drain_a_200_job_sweep_and_the_journal_verifies(tmp_path):
    jobs = _sweep_jobs(200)
    queue = FileQueue(tmp_path / "queue", lease_ttl=10.0)
    assert queue.submit(jobs) == 200

    procs = [_spawn_worker(queue.root, f"smoke{i}") for i in range(2)]
    outputs = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=600)
            outputs.append(out)
            assert proc.returncode == 0, out
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    # the queue is fully drained, nothing quarantined, nothing leaked
    assert queue.outstanding() == (0, 0)
    counts = queue.counts()
    assert counts["done"] == 200 and counts["quarantined"] == 0

    # both processes did real work and each trace was acquired frugally
    stats = {s["worker"]: s for s in queue.read_stats()}
    assert set(stats) == {"smoke0", "smoke1"}
    executed = {w: s["executed"] for w, s in stats.items()}
    assert sum(executed.values()) == 200
    assert all(s["failed"] == 0 for s in stats.values())
    total_reuses = sum(s["trace_reuses"] for s in stats.values())
    total_groups = sum(s["groups"] for s in stats.values())
    assert total_reuses == 200 - total_groups
    assert total_reuses > 100  # amortization actually happened

    # merge the done-records into a journal and its store, as a coordinating
    # parent would
    journal = RunJournal(tmp_path / "merged.jsonl")
    merged = 0
    for key, record in queue.collect_new(set()):
        assert record["ok"], record
        journal.record_success(key, journal.store.put(key, result_from_dict(record["result"])))
        merged += 1
    assert merged == 200

    # the merged journal satisfies the whole sweep without re-running
    report = run_jobs(jobs, workers=1, journal=journal, return_report=True)
    assert len(report.outcomes) == 200
    assert all(o.ok and o.from_journal for o in report.outcomes)

    # spot-check: queue-computed results are bit-identical to direct runs
    sample = jobs[::23]
    direct = run_jobs(sample, workers=1)
    by_key = {o.key: o.result for o in report.outcomes}
    for job, expected in zip(sample, direct):
        assert _fingerprint(by_key[job.key()]) == _fingerprint(expected)


# ----------------------------------------------------------------------
# Sweep gate: one grid drained four ways
# ----------------------------------------------------------------------
GATE_INSTS = 4_000
GATE_SIZES = (1024, 2048, 4096, 8192, 16384)
#: Floor on the geomean jobs/s of the four drains.  The CLI gate this
#: test replaced held the same four drains to at least 0.1x (a 0.9
#: regression allowance) of a baseline report committed at the
#: repository root, since removed (see git history and CHANGES.md).
#: That report's geomean was 11.077 jobs/s: serial 12.2, shared-fs with
#: one and two workers 12.4 and 9.1, tcp with two workers 11.0, measured
#: at 8000 instructions per job on a 1-CPU host.
SWEEP_GATE_MIN_JOBS_PER_S = 1.108
#: Floor on each queue drain's jobs/s, as a share of the serial drain's.
SWEEP_GATE_MIN_VS_SERIAL = 0.1
GATE_LEASE_TTL = 15.0


def _gate_jobs():
    """40 pipeline jobs: em3d and mcf x PA/PC x 1K-16K entries x seeds 0, 1.

    Each workload's 20 configs share two traces, so the queue drains
    amortize trace acquisition the way a real sensitivity sweep does.
    """
    base = SimulationConfig.paper_default(FilterKind.PA).with_warmup(GATE_INSTS // 3)
    return [
        SimulationJob(workload, base.with_filter(kind=kind, table_entries=size), GATE_INSTS, seed)
        for workload in WORKLOADS
        for seed in (0, 1)
        for kind in KINDS
        for size in GATE_SIZES
    ]


def _gate_backend(workers, **kwargs):
    return QueueBackend(
        spawn=workers - 1,
        lease_ttl=GATE_LEASE_TTL,
        batch=max(2, 40 // (2 * workers)),
        **kwargs,
    )


def _timed_drain(jobs, **kwargs):
    """``run_jobs`` in this process: the payloads and the drain's jobs/s."""
    t0 = time.perf_counter()
    results = run_jobs(jobs, workers=1, **kwargs)
    rate = len(jobs) / (time.perf_counter() - t0)
    return [result_to_dict(r) for r in results], rate


def test_sweep_gate_drains_are_bit_identical_healthy_and_above_the_floor(tmp_path):
    jobs = _gate_jobs()
    assert len({j.key() for j in jobs}) == 40
    expected, serial_rate = _timed_drain(jobs)
    rates = {"serial": serial_rate}

    for workers in (1, 2):
        label = f"shared-fs[{workers}w]"
        backend = _gate_backend(workers, queue_dir=tmp_path / label / "queue")
        cache = ResultCache(tmp_path / label / "cache")
        payloads, rates[label] = _timed_drain(jobs, cache=cache, backend=backend)
        assert payloads == expected, label
        assert backend.last_counts["quarantined"] == 0, label
        assert backend.last_counts["poisoned"] == 0, label
        # pressure_skipped depends on the host's free disk, so only the
        # corruption count is held to zero.
        assert cache.stats["quarantined"] == 0, label

    broker = Broker(
        FileQueue(tmp_path / "tcp" / "queue", lease_ttl=GATE_LEASE_TTL),
        host="127.0.0.1", port=0,
    )
    broker.start()
    broker.serve_in_thread()
    try:
        backend = _gate_backend(2, broker=f"127.0.0.1:{broker.port}")
        payloads, rates["tcp[2w]"] = _timed_drain(jobs, backend=backend)
    finally:
        broker.stop()
    assert payloads == expected, "tcp[2w]"
    assert backend.last_transport == {
        "reconnects": 0, "retried_calls": 0, "replayed_ops": 0, "broker_restarts": 0,
    }

    assert geometric_mean(rates.values()) >= SWEEP_GATE_MIN_JOBS_PER_S, rates
    for label, rate in rates.items():
        assert rate >= SWEEP_GATE_MIN_VS_SERIAL * serial_rate, (label, rates)
