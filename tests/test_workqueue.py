"""FileQueue protocol: atomic claims, skew-immune stealing, sealed records.

These tests exercise the queue as a *protocol*, mostly without running
simulations: several FileQueue instances on one directory stand in for
workers on different hosts, and staleness is driven by real (short)
lease TTLs.  Chaos paths that need actual workers live in
``test_worker_chaos.py``.
"""

import dataclasses
import errno
import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis import workqueue
from repro.analysis.parallel import SimulationJob
from repro.analysis.workqueue import Claim, FileQueue, new_worker_id
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults


def _jobs(n, workload="em3d", n_insts=2_000):
    cfg = SimulationConfig.paper_default(FilterKind.PA)
    sizes = (1024, 2048, 4096, 8192, 16384)
    return [
        SimulationJob(workload, cfg.with_filter(table_entries=sizes[i % 5]), n_insts, seed=i // 5)
        for i in range(n)
    ]


@pytest.fixture
def queue(tmp_path):
    return FileQueue(tmp_path / "q", lease_ttl=0.3)


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
def test_submit_writes_one_sealed_file_per_key(queue):
    jobs = _jobs(4)
    assert queue.submit(jobs) == 4
    files = sorted(queue.jobs_dir.glob("*.json"))
    assert len(files) == 4
    record = json.loads(files[0].read_text())
    assert record["sha256"] and record["v"] == 1
    assert {f.stem for f in files} == {j.key() for j in jobs}


def test_resubmit_is_idempotent_across_states(queue):
    jobs = _jobs(3)
    queue.submit(jobs)
    # one claimed, one done, one still queued: resubmitting adds nothing
    claims = queue.claim("w1", limit=1)
    done = queue.claim("w1", limit=1)
    queue.complete(done[0], {"ok": True, "result": {}, "attempts": []})
    assert queue.submit(jobs) == 0
    assert queue.submit(jobs + _jobs(1, workload="mcf")) == 1
    queue.release(claims[0])


def test_duplicate_jobs_submit_once(queue):
    job = _jobs(1)[0]
    assert queue.submit([job, job, job]) == 1


# ----------------------------------------------------------------------
# Claiming
# ----------------------------------------------------------------------
def test_racing_claimers_never_share_a_job(queue):
    queue.submit(_jobs(10))
    a = queue.claim("wa", limit=10)
    b = queue.claim("wb", limit=10)
    taken_a = {c.key for c in a}
    taken_b = {c.key for c in b}
    assert not (taken_a & taken_b)
    assert len(taken_a | taken_b) == 10
    # ownership and generation are embedded in the lease filename
    for claim in a:
        assert claim.path.name.endswith(".g0.wa.json")
        assert claim.generation == 0 and not claim.stolen


def test_claim_skips_and_retires_already_done_keys(queue):
    jobs = _jobs(2)
    queue.submit(jobs)
    claim = queue.claim("w1", limit=1)[0]
    queue.complete(claim, {"ok": True, "result": {}, "attempts": []})
    # simulate a resubmitted duplicate of the finished job
    queue.submit([c for c in jobs if c.key() == claim.key] or jobs[:1])
    (queue.jobs_dir / f"{claim.key}.json").write_text(
        json.dumps({"key": claim.key, "job": {}, "v": 1})
    )
    claims = queue.claim("w2", limit=10)
    assert claim.key not in {c.key for c in claims}
    assert not (queue.jobs_dir / f"{claim.key}.json").exists()


def test_corrupt_job_file_is_quarantined_not_run(queue):
    queue.submit(_jobs(1))
    path = next(queue.jobs_dir.glob("*.json"))
    record = json.loads(path.read_text())
    record["job"]["n_insts"] = 999_999  # tampered: digest no longer matches
    path.write_text(json.dumps(record))
    assert queue.claim("w1", limit=1) == []
    assert queue.quarantined == 1
    assert queue.outstanding() == (0, 0)


def test_release_returns_job_to_pool(queue):
    queue.submit(_jobs(1))
    claim = queue.claim("w1", limit=1)[0]
    assert queue.outstanding() == (0, 1)
    queue.release(claim)
    assert queue.outstanding() == (1, 0)
    assert queue.claim("w2", limit=1)[0].key == claim.key


# ----------------------------------------------------------------------
# Heartbeats and stealing
# ----------------------------------------------------------------------
def test_heartbeat_is_rate_limited_and_forceable(queue):
    assert queue.heartbeat("w1", force=True)
    assert not queue.heartbeat("w1")  # within TTL/4 of the last beat
    assert queue.heartbeat("w1", force=True)
    beats = json.loads((queue.hb_dir / "w1.json").read_text())["beats"]
    assert beats == 2


def test_steal_requires_a_full_ttl_of_observed_silence(queue, tmp_path):
    queue.submit(_jobs(1))
    owner = FileQueue(tmp_path / "q", lease_ttl=0.3)
    owner.claim("w1", limit=1)
    owner.heartbeat("w1", force=True)
    thief = FileQueue(tmp_path / "q", lease_ttl=0.3)
    # first sighting only starts the thief's local observation timer
    assert thief.steal("w2", limit=1) == []
    time.sleep(0.35)
    stolen = thief.steal("w2", limit=1)
    assert len(stolen) == 1
    assert stolen[0].stolen and stolen[0].generation == 1
    assert stolen[0].path.name.endswith(".g1.w2.json")


def test_live_heartbeats_prevent_stealing(queue, tmp_path):
    queue.submit(_jobs(1))
    owner = FileQueue(tmp_path / "q", lease_ttl=0.3)
    owner.claim("w1", limit=1)
    thief = FileQueue(tmp_path / "q", lease_ttl=0.3)
    deadline = time.monotonic() + 0.7
    while time.monotonic() < deadline:
        owner.heartbeat("w1", force=True)
        assert thief.steal("w2", limit=1) == []
        time.sleep(0.05)


def test_staleness_ignores_clocks_and_mtimes_entirely(queue, tmp_path):
    """Skew immunity: lying mtimes and absurd counter values change nothing.

    The thief only watches *whether the owner's beat payload changes*
    against its own monotonic clock — a lease file dated 1970, a
    heartbeat dated 2099, or a beats counter running backwards must
    neither trigger a premature steal nor prevent a legitimate one.
    """
    queue.submit(_jobs(1))
    owner = FileQueue(tmp_path / "q", lease_ttl=0.3)
    lease = owner.claim("w1", limit=1)[0]
    # lease "written" decades ago, heartbeat file "from the future"
    os.utime(lease.path, (0, 0))
    thief = FileQueue(tmp_path / "q", lease_ttl=0.3)
    for beats in (10**12, 5, 3):  # counter jumps backwards: still "alive"
        (owner.hb_dir / "w1.json").write_text(json.dumps({"worker": "w1", "beats": beats}))
        os.utime(owner.hb_dir / "w1.json", (4102444800, 4102444800))
        assert thief.steal("w2", limit=1) == []
        time.sleep(0.12)
    # now the counter freezes: one TTL of *thief-local* time later, steal
    time.sleep(0.35)
    assert len(thief.steal("w2", limit=1)) == 1


def test_own_leases_are_never_stolen(queue):
    queue.submit(_jobs(1))
    queue.claim("w1", limit=1)
    time.sleep(0.35)
    assert queue.steal("w1", limit=1) == []


def test_second_generation_steal_bumps_generation(queue, tmp_path):
    queue.submit(_jobs(1))
    FileQueue(tmp_path / "q", lease_ttl=0.2).claim("w1", limit=1)
    thief1 = FileQueue(tmp_path / "q", lease_ttl=0.2)
    thief1.steal("w2", limit=1)
    time.sleep(0.25)
    first = thief1.steal("w2", limit=1)
    assert first and first[0].generation == 1
    thief2 = FileQueue(tmp_path / "q", lease_ttl=0.2)
    thief2.steal("w3", limit=1)
    time.sleep(0.25)
    second = thief2.steal("w3", limit=1)
    assert second and second[0].generation == 2
    assert second[0].path.name.endswith(".g2.w3.json")


def test_stale_lease_fault_suppresses_heartbeat_writes(queue):
    """``drop@stale-lease`` models heartbeats that never reach the FS."""
    with inject_faults("drop@stale-lease"):
        assert not queue.heartbeat("w1", force=True)
    assert not (queue.hb_dir / "w1.json").exists()
    assert queue.heartbeat("w1", force=True)  # plan lifted: beats land again


# ----------------------------------------------------------------------
# Completion records
# ----------------------------------------------------------------------
def test_complete_publishes_sealed_record_and_retires_lease(queue):
    queue.submit(_jobs(1))
    claim = queue.claim("w1", limit=1)[0]
    queue.complete(claim, {"ok": True, "result": {"cycles": 1}, "attempts": []})
    assert queue.outstanding() == (0, 0)
    record = queue.done_record(claim.key)
    assert record["ok"] and record["generation"] == 0
    assert record["sha256"]


def test_corrupt_done_record_is_quarantined_on_read(queue):
    queue.submit(_jobs(1))
    claim = queue.claim("w1", limit=1)[0]
    queue.complete(claim, {"ok": True, "result": {"cycles": 1}, "attempts": []})
    path = queue.done_dir / f"{claim.key}.json"
    record = json.loads(path.read_text())
    record["result"]["cycles"] = 2  # tampered outcome
    path.write_text(json.dumps(record))
    assert queue.done_record(claim.key) is None
    assert queue.quarantined == 1
    assert not path.exists()  # removed, so the key is honestly not-done


def test_collect_new_yields_each_record_once(queue):
    queue.submit(_jobs(3))
    for claim in queue.claim("w1", limit=3):
        queue.complete(claim, {"ok": True, "result": {}, "attempts": []})
    seen = set()
    assert len(list(queue.collect_new(seen))) == 3
    assert list(queue.collect_new(seen)) == []


def test_counts_snapshot(queue):
    queue.submit(_jobs(4))
    queue.claim("w1", limit=1)
    done = queue.claim("w1", limit=1)
    queue.complete(done[0], {"ok": True, "result": {}, "attempts": []})
    assert queue.counts() == {
        "jobs": 2, "leases": 1, "done": 1, "quarantined": 0, "poisoned": 0,
    }


def test_worker_stats_roundtrip(queue):
    queue.write_stats("w1", {"worker": "w1", "executed": 3})
    queue.write_stats("w2", {"worker": "w2", "executed": 5})
    stats = queue.read_stats()
    assert [s["worker"] for s in stats] == ["w1", "w2"]


def test_new_worker_ids_are_unique_and_filename_safe():
    ids = {new_worker_id() for _ in range(32)}
    assert len(ids) == 32
    assert all(i.isalnum() for i in ids)


def test_lease_ttl_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        FileQueue(tmp_path / "q", lease_ttl=0.0)


def test_claim_dataclass_is_frozen(queue):
    queue.submit(_jobs(1))
    claim = queue.claim("w1", limit=1)[0]
    assert isinstance(claim, Claim)
    with pytest.raises(AttributeError):
        claim.key = "other"


# ----------------------------------------------------------------------
# Poison-job quarantine
# ----------------------------------------------------------------------
def _steal_chain(tmp_path, thief_name, ttl=0.2, threshold=2):
    """A fresh observer that waits out one TTL, then steals (or not)."""
    thief = FileQueue(tmp_path / "q", lease_ttl=ttl, poison_threshold=threshold)
    thief.steal(thief_name, limit=1)  # first sighting starts its timer
    time.sleep(ttl + 0.05)
    return thief, thief.steal(thief_name, limit=1)


def test_steal_quarantines_past_the_poison_threshold(tmp_path):
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=2)
    q.submit(_jobs(1))
    (claim,) = q.claim("w0", limit=1)  # execution 1, generation 0
    _, first = _steal_chain(tmp_path, "w1")
    assert first and first[0].generation == 1  # execution 2: allowed
    _, second = _steal_chain(tmp_path, "w2")
    assert second and second[0].generation == 2  # execution 3 == threshold+1
    thief, third = _steal_chain(tmp_path, "w3")
    assert third == []  # generation 3 would mean a 4th death: quarantined
    assert thief.poisoned == 1
    assert q.counts()["poisoned"] == 1  # visible from every instance
    assert q.outstanding() == (0, 0)  # the lease is gone, not stuck

    record = q.quarantine_record(claim.key)
    assert record is not None
    assert record["executions"] == 3 and record["generation"] == 2
    assert record["last_owner"] == "w2"
    assert "poison job" in record["reason"]
    assert record["token"] == claim.token
    assert "last_worker_log_tail" in record
    assert q.collect_quarantined() == {claim.key: record}


def test_quarantine_record_survives_a_dead_quarantiner(tmp_path):
    """A crash between the capture rename and the record write loses nothing."""
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    q.submit(_jobs(1))
    (claim,) = q.claim("w0", limit=1)
    # simulate _quarantine_poison dying right after its rename
    os.rename(claim.path, q.quarantine_dir / f"{claim.key}.g1.w9.lease")
    assert q.poison_sweep() == 1
    record = q.quarantine_record(claim.key)
    assert record is not None
    assert record["executions"] == 2 and record["last_owner"] == "w9"
    assert "recovered" in record["reason"]
    assert not list(q.quarantine_dir.glob("*.lease"))


def test_poison_sweep_quarantines_without_executing(tmp_path):
    """The supervisor's path: no claim, no steal, no execution — only
    observation of a stale lease already past the threshold."""
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    q.submit(_jobs(2))
    q.claim("w0", limit=2)  # generation 0 on both
    # hand-bump one lease past the threshold, as if stolen once already
    key0 = sorted(p.name.split(".")[0] for p in q.leases_dir.glob("*.json"))[0]
    src = q.leases_dir / f"{key0}.g0.w0.json"
    os.rename(src, q.leases_dir / f"{key0}.g1.w1.json")
    sup = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    assert sup.poison_sweep() == 0  # first sighting only starts the timer
    time.sleep(0.25)
    assert sup.poison_sweep() == 1  # g1 lease quarantined; g0 lease spared
    assert sup.counts()["poisoned"] == 1
    assert sup.counts()["leases"] == 1
    assert sup.quarantine_record(key0) is not None


def test_resubmitting_a_quarantined_job_requeues_it(tmp_path):
    """Quarantine is a verdict on a run, not a life sentence for the key:
    resubmitting after a fix runs the job again."""
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    jobs = _jobs(1)
    q.submit(jobs)
    (claim,) = q.claim("w0", limit=1)
    os.rename(claim.path, q.leases_dir / f"{claim.key}.g1.w1.json")
    q.steal("w2", limit=1)
    time.sleep(0.25)
    assert q.steal("w2", limit=1) == []  # quarantined instead
    assert q.counts()["poisoned"] == 1
    assert q.submit(jobs) == 1  # quarantined keys are not "known"
    (again,) = q.claim("w3", limit=1)
    assert again.key == claim.key and again.generation == 0


# ----------------------------------------------------------------------
# Completion versus quarantine: one arbitration point
# ----------------------------------------------------------------------
_OK = {"ok": True, "result": {}, "attempts": []}


def _lease_past_the_threshold(tmp_path):
    """An owner's queue holding one lease at generation 1 (threshold 1)."""
    owner = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    owner.submit(_jobs(1))
    (claim,) = owner.claim("w0", limit=1)
    lease = owner.leases_dir / f"{claim.key}.g1.w0.json"
    os.rename(claim.path, lease)  # as if stolen once already
    return owner, dataclasses.replace(claim, path=lease, generation=1)


@pytest.mark.parametrize("quarantine", [
    lambda q: q.poison_sweep(),
    lambda q: q.steal("w9", limit=1),
], ids=["poison_sweep", "steal"])
def test_completion_inside_the_quarantine_window_ends_done_xor_quarantined(
    tmp_path, monkeypatch, quarantine
):
    """The owner completes between a quarantiner's ``is_done`` check and
    its capture rename, with its lease unlink held back as in the real
    interleaving — the window that used to leave a key both done and
    quarantined."""
    owner, claim = _lease_past_the_threshold(tmp_path)
    quarantiner = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    monkeypatch.setattr(quarantiner, "_owner_is_stale", lambda name: True)
    real_is_done, real_unlink = quarantiner.is_done, Path.unlink
    held = []

    def is_done_while_the_owner_completes(key):
        seen = real_is_done(key)
        with monkeypatch.context() as m:
            m.setattr(Path, "unlink", lambda path, missing_ok=False: held.append(path))
            owner.complete(claim, _OK)
        return seen

    monkeypatch.setattr(quarantiner, "is_done", is_done_while_the_owner_completes)
    quarantine(quarantiner)
    for path in held:
        real_unlink(path, missing_ok=True)
    done = owner.is_done(claim.key)
    quarantined = owner.quarantine_record(claim.key) is not None
    assert done != quarantined, "a key is both done and quarantined (or neither)"
    assert owner.outstanding() == (0, 0)


def test_an_owner_whose_lease_was_quarantined_publishes_nothing(tmp_path):
    owner, claim = _lease_past_the_threshold(tmp_path)
    sup = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    sup.poison_sweep()
    time.sleep(0.25)
    assert sup.poison_sweep() == 1
    owner.complete(claim, _OK)  # the owner revives after the capture
    assert not owner.is_done(claim.key)
    assert owner.quarantine_record(claim.key) is not None
    assert owner.outstanding() == (0, 0)


def test_a_failed_done_write_hands_the_lease_back(queue, monkeypatch):
    queue.submit(_jobs(1))
    (claim,) = queue.claim("w1", limit=1)

    def disk_full(path, payload):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(workqueue, "atomic_write_json", disk_full)
    with pytest.raises(OSError):
        queue.complete(claim, _OK)
    assert claim.path.exists()  # still a plain lease: stealable, poison-counted
    assert not queue.is_done(claim.key)
    assert queue.outstanding() == (0, 1)


def test_a_dead_owners_completing_lease_is_retired_or_stolen(tmp_path, monkeypatch):
    """An owner that died mid-publish strands a completing lease: after
    its done write it is retired on sight, before it a thief steals it
    once the owner looks dead.  Either way the key is never lost."""
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    jobs = _jobs(2)
    q.submit(jobs)
    published, unpublished = q.claim("w0", limit=2)
    with monkeypatch.context() as m:
        m.setattr(Path, "unlink", lambda path, missing_ok=False: None)
        q.complete(published, _OK)  # died after the done write
    os.rename(unpublished.path, unpublished.path.with_suffix(".completing"))
    assert q.outstanding() == (0, 2)  # no drain may stop mid-publish
    assert q.known_keys() == {j.key() for j in jobs}
    assert q.submit(jobs) == 0

    thief = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=1)
    assert thief.steal("w1", limit=2) == []  # first sighting of w0
    assert q.outstanding() == (0, 1)  # the published key's lease is retired
    time.sleep(0.25)
    (stolen,) = thief.steal("w1", limit=2)
    assert stolen.key == unpublished.key and stolen.generation == 1 and stolen.stolen
    thief.complete(stolen, _OK)
    assert q.outstanding() == (0, 0)
    assert q.is_done(published.key) and q.is_done(unpublished.key)
    assert q.collect_quarantined() == {}


# ----------------------------------------------------------------------
# Property: many racing workers, exactly one winner per (key, generation)
# ----------------------------------------------------------------------
def test_many_thread_claim_race_has_exactly_one_winner_per_event(tmp_path):
    """Eight deliberately heartbeat-less workers race claim/steal/
    poison-sweep over one directory.  Atomic renames are the only
    arbitration, so the invariant to break is *exclusivity*: every
    (key, generation) pair is claimed by at most one worker, and every
    key ends exactly once — done XOR quarantined, never both, never
    twice, never lost.  Workers never heartbeat, so abandoned keys age
    into steals and finally quarantine within the run.
    """
    import random
    import threading

    n_workers, n_jobs, threshold = 8, 24, 2
    jobs = _jobs(n_jobs)
    FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=threshold).submit(jobs)
    events = []  # (key, generation, worker) for every successful acquisition
    events_lock = threading.Lock()
    stop = time.monotonic() + 6.0

    def work(idx):
        rng = random.Random(1000 + idx)  # seeded: reruns race the same way
        q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=threshold)
        me = f"w{idx}"
        while time.monotonic() < stop:
            got = q.claim(me, limit=rng.randint(1, 3)) if rng.random() < 0.5 else []
            got += q.steal(me, limit=rng.randint(1, 3))
            with events_lock:
                events.extend((c.key, c.generation, me) for c in got)
            for claim in got:
                # finish some, abandon the rest without ever heartbeating
                if rng.random() < 0.5:
                    q.complete(claim, {"ok": True, "result": {}, "attempts": []})
            if rng.random() < 0.2:
                q.poison_sweep()
            time.sleep(rng.uniform(0.0, 0.05))
        counts = q.counts()
        if counts["jobs"] or counts["leases"]:
            return  # someone else may still retire the stragglers

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # exclusivity: no (key, generation) was ever handed to two workers
    pairs = [(k, g) for k, g, _ in events]
    assert len(pairs) == len(set(pairs)), "a lease generation was double-claimed"

    # completeness: every key ended exactly once, done XOR quarantined
    q = FileQueue(tmp_path / "q", lease_ttl=0.2, poison_threshold=threshold)
    # ample idle time has passed for any survivor lease to be stale
    time.sleep(0.25)
    q.steal("sweeper", limit=n_jobs)  # start the sweeper's staleness clock
    deadline = time.monotonic() + 8.0
    while time.monotonic() < deadline:
        for claim in q.claim("sweeper", limit=n_jobs) + q.steal("sweeper", limit=n_jobs):
            q.complete(claim, {"ok": True, "result": {}, "attempts": []})
        q.poison_sweep()
        if q.outstanding() == (0, 0):
            break
        time.sleep(0.1)
    counts = q.counts()
    assert q.outstanding() == (0, 0)
    done = {p.stem for p in q.done_dir.glob("*.json")}
    quarantined = set(q.collect_quarantined())
    assert not (done & quarantined), "a key is both done and quarantined"
    assert done | quarantined == {j.key() for j in jobs}
    assert counts["done"] + counts["poisoned"] == n_jobs
