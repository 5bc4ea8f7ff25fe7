"""Queue worker: what a dead lease owner costs the jobs it held.

A thief steals one lease per round, and only once nothing is left to
claim, so an innocent job claimed in the same batch as a poison job
does not climb the poison job's lease generations.  A stolen execution
numbers its attempts from the lease generation, so each dead owner
costs the job exactly one attempt.
"""

import pytest

from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy
from repro.analysis.result_cache import result_from_dict
from repro.analysis.worker import drain_queue
from repro.analysis.workqueue import FileQueue
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import FaultInjected, inject_faults

N = 1_500


def _jobs(seeds):
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
    return [SimulationJob("em3d", cfg, N, seed) for seed in seeds]


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


def test_innocent_claimed_beside_a_poison_job_is_not_quarantined(tmp_path):
    jobs = _jobs((0, 1))
    serial = run_jobs(jobs, workers=1)
    FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=2).submit(jobs)

    deaths = 0
    with inject_faults("raise@worker-death:match=|seed=0|"):
        for _ in range(10):
            # A fresh instance per worker: staleness is observed per instance.
            queue = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=2)
            try:
                drain_queue(queue, worker=f"w{deaths}", batch=2, poll=0.05)
            except FaultInjected:
                deaths += 1
                continue
            break
    assert deaths == 3
    counts = queue.counts()
    assert counts["poisoned"] == 1 and counts["done"] == 1
    assert set(queue.collect_quarantined()) == {jobs[0].key()}
    record = queue.done_record(jobs[1].key())
    assert record["ok"]
    assert _fingerprint(result_from_dict(record["result"])) == _fingerprint(serial[1])


def test_stolen_execution_numbers_attempts_from_the_lease_generation(tmp_path):
    [job] = _jobs((0,))
    FileQueue(tmp_path / "q", lease_ttl=0.2).submit([job])
    plan = "raise@worker-death:match=doomed;raise@worker:match=|seed=0|,attempts=0"
    with inject_faults(plan):
        with pytest.raises(FaultInjected):
            drain_queue(FileQueue(tmp_path / "q", lease_ttl=0.2), worker="doomed", batch=1)
        rescue = FileQueue(tmp_path / "q", lease_ttl=0.2)
        drain_queue(
            rescue, worker="rescuer", batch=1, poll=0.05, policy=RetryPolicy(max_attempts=2)
        )
    record = rescue.done_record(job.key())
    assert record["ok"] and record["generation"] == 1
    assert record["attempts"] == []
