"""TCP transport: broker + NetQueue protocol, retries, and fault chaos.

The broker is a thin network front over a :class:`FileQueue` — every
test here asserts either that the wire adds *nothing* semantically
(same claims, same records, same counts as touching the directory) or
that the one thing it does add — a lossy link — is ridden out by
retries and idempotent replay.  Faults use the ``network`` site with
``@network`` plans; kill-the-broker chaos at process scale lives in
``test_broker_chaos.py``.
"""

import os
import pickle
import time

import pytest

from repro.analysis.backend import QueueBackend
from repro.analysis.netqueue import (
    Broker,
    BrokerError,
    BrokerUnreachable,
    NetQueue,
    parse_broker_spec,
)
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy, execute_batch
from repro.analysis.worker import drain_queue
from repro.analysis.workqueue import FileQueue, validate_queue_dir
from repro.cli import main
from repro.common.config import FilterKind, SimulationConfig
from repro.common.faults import inject_faults

#: Small backoff so fault tests converge in milliseconds, with enough
#: attempts to outlive every transient plan used below.
FAST = RetryPolicy(max_attempts=6, backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _jobs(n, workload="em3d", n_insts=2_000):
    cfg = SimulationConfig.paper_default(FilterKind.PA)
    sizes = (1024, 2048, 4096, 8192, 16384)
    return [
        SimulationJob(workload, cfg.with_filter(table_entries=sizes[i % 5]), n_insts, seed=i // 5)
        for i in range(n)
    ]


@pytest.fixture
def broker(tmp_path):
    b = Broker(FileQueue(tmp_path / "q", lease_ttl=0.5), host="127.0.0.1", port=0)
    b.start()
    b.serve_in_thread()
    yield b
    b.stop()


def _client(broker, **kw):
    kw.setdefault("retry", FAST)
    nq = NetQueue("127.0.0.1", broker.port, **kw)
    nq.hello()
    return nq


# ----------------------------------------------------------------------
# Address / directory validation (the satellite)
# ----------------------------------------------------------------------
def test_parse_broker_spec_accepts_host_port():
    assert parse_broker_spec("127.0.0.1:7070") == ("127.0.0.1", 7070)
    assert parse_broker_spec("queue.internal:80") == ("queue.internal", 80)
    assert parse_broker_spec("[::1]:7070") == ("::1", 7070)


def test_parse_broker_spec_rejects_garbage_with_the_flag_name():
    for bad in ("7070", "host:", ":7070", "host:port", "host:99999", "host:0"):
        with pytest.raises(ValueError, match="--broker"):
            parse_broker_spec(bad)
    with pytest.raises(ValueError, match="--listen"):
        parse_broker_spec("nope", what="--listen")
    # a broker may ask the OS for a free port; clients may not
    assert parse_broker_spec("host:0", allow_port_zero=True) == ("host", 0)


def test_validate_queue_dir_accepts_existing_and_creatable(tmp_path):
    assert validate_queue_dir(tmp_path) == tmp_path
    assert validate_queue_dir(tmp_path / "new") == tmp_path / "new"


def test_validate_queue_dir_rejects_files_and_missing_parents(tmp_path):
    f = tmp_path / "a-file"
    f.write_text("x")
    with pytest.raises(ValueError, match="not a directory"):
        validate_queue_dir(f)
    with pytest.raises(ValueError, match="parent directory"):
        validate_queue_dir(tmp_path / "no" / "such" / "parent")
    with pytest.raises(ValueError, match="REPRO_QUEUE_DIR"):
        validate_queue_dir(f, what="REPRO_QUEUE_DIR")


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")
def test_validate_queue_dir_rejects_unwritable(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    try:
        with pytest.raises(ValueError, match="not writable"):
            validate_queue_dir(locked)
    finally:
        locked.chmod(0o700)


# ----------------------------------------------------------------------
# Wire protocol adds nothing: queue semantics survive the hop
# ----------------------------------------------------------------------
def test_roundtrip_submit_claim_complete_collect(broker):
    nq = _client(broker)
    jobs = _jobs(4)
    assert nq.submit(jobs) == 4
    assert nq.submit(jobs) == 0  # content-keyed: resubmission is free
    claims = nq.claim("w0", 4)
    assert {c.key for c in claims} == {j.key() for j in jobs}
    for c in claims:
        nq.complete(c, {"ok": True, "result": {}, "attempts": []})
    assert nq.outstanding() == (0, 0)
    assert nq.counts()["done"] == 4
    assert all(nq.is_done(j.key()) for j in jobs)
    collected = dict(nq.collect_new(set()))
    assert set(collected) == {j.key() for j in jobs}
    # and the state is really on the broker's disk, not in the broker
    assert broker.queue.counts()["done"] == 4
    nq.close()


def test_claim_is_idempotent_by_redelivery(broker):
    """A lost claim *response* must not strand jobs: the broker answers
    a replayed claim with the caller's own live leases first."""
    nq = _client(broker)
    nq.submit(_jobs(3))
    first = nq.claim("w0", 3)
    replay = nq.claim("w0", 3)
    assert sorted(c.key for c in first) == sorted(c.key for c in replay)
    assert sorted(c.generation for c in replay) == [0, 0, 0]
    # another worker still sees nothing claimable — no double delivery
    assert nq.claim("w1", 3) == []
    nq.close()


def test_complete_is_idempotent_last_writer_wins(broker):
    nq = _client(broker)
    nq.submit(_jobs(1))
    (claim,) = nq.claim("w0", 1)
    nq.complete(claim, {"ok": True, "result": {"pass": 1}, "attempts": []})
    nq.complete(claim, {"ok": True, "result": {"pass": 2}, "attempts": []})
    records = dict(nq.collect_new(set()))
    assert len(records) == 1
    assert next(iter(records.values()))["result"] == {"pass": 2}
    nq.close()


def test_heartbeat_and_steal_over_the_wire(broker, tmp_path):
    nq = _client(broker)
    nq.submit(_jobs(2))
    victim = nq.claim("dead", 2)
    assert len(victim) == 2
    # the thief needs a full TTL of observed silence, same as shared-fs
    thief = _client(broker)
    assert thief.steal("thief", 2) == []
    time.sleep(0.7)
    stolen = thief.steal("thief", 2)
    assert len(stolen) == 2
    assert all(c.stolen and c.generation == 1 for c in stolen)
    nq.close()
    thief.close()


def test_worker_stats_roundtrip_over_the_wire(broker):
    nq = _client(broker)
    nq.write_stats("w0", {"worker": "w0", "executed": 7})
    stats = nq.read_stats()
    assert any(s.get("executed") == 7 for s in stats)
    nq.close()


def test_bad_op_is_an_error_not_a_retry(broker):
    nq = _client(broker)
    with pytest.raises(BrokerError, match="unknown op"):
        nq._call("no-such-op")
    assert nq.retried_calls == 0  # broker said no; retrying would spin
    nq.close()


def test_netqueue_sheds_socket_state_on_pickle(broker):
    nq = _client(broker)
    clone = pickle.loads(pickle.dumps(nq))
    clone.retry = FAST
    assert clone.counts()["done"] == 0  # reconnects lazily and works
    clone.close()
    nq.close()


def test_broker_refuses_to_pickle(broker):
    with pytest.raises(TypeError):
        pickle.dumps(broker)


def test_broker_restart_counter_persists(tmp_path):
    for expected in (0, 1, 2):
        b = Broker(FileQueue(tmp_path / "q", lease_ttl=0.5), port=0)
        assert b.restarts == expected
        b.start()
        b.serve_in_thread()
        nq = _client(b)
        assert nq.broker_restarts == expected
        nq.close()
        b.stop()


# ----------------------------------------------------------------------
# Drains: the tcp backend is bit-identical to serial
# ----------------------------------------------------------------------
def _fingerprints(results):
    return [(r.cycles, r.instructions, r.prefetch) for r in results]


def test_drain_over_tcp_matches_serial(broker):
    jobs = _jobs(6)
    serial = run_jobs(jobs, workers=1)
    backend = QueueBackend(broker=f"127.0.0.1:{broker.port}", spawn=0, batch=3, retry=FAST)
    report = execute_batch(jobs, backend=backend)
    assert _fingerprints(report.results) == _fingerprints(serial)
    assert report.degradations == []
    assert report.transport["broker_restarts"] == 0
    assert backend.last_transport == report.transport


def test_drain_queue_speaks_netqueue_directly(broker):
    nq = _client(broker)
    nq.submit(_jobs(4))
    stats = drain_queue(nq, worker="w0", batch=2, poll=0.05)
    assert stats.executed == 4 and stats.failed == 0
    assert stats.stopped is None
    assert nq.outstanding() == (0, 0)
    nq.close()


# ----------------------------------------------------------------------
# Chaos: the link is lossy, the protocol converges anyway
# ----------------------------------------------------------------------
def test_client_conn_reset_is_retried_to_convergence(broker):
    with inject_faults("conn-reset@network:match=client|,attempts=0", seed=3):
        nq = _client(broker)
        jobs = _jobs(4)
        assert nq.submit(jobs) == 4
        claims = nq.claim("w0", 4)
        assert len(claims) == 4
        for c in claims:
            nq.complete(c, {"ok": True, "result": {}, "attempts": []})
        assert nq.counts()["done"] == 4
        assert nq.retried_calls > 0 and nq.reconnects > 0
        assert nq.replayed_ops > 0  # submit/complete replays were counted
        nq.close()


def test_partial_write_is_replayed_without_duplicates(broker):
    with inject_faults("partial-write@network:match=client|submit,attempts=0", seed=5):
        nq = _client(broker)
        assert nq.submit(_jobs(3)) == 3
        assert nq.replayed_ops >= 1
        nq.close()
    # the truncated frame did not half-land: exactly 3 job files
    assert broker.queue.counts()["jobs"] == 3


def test_broker_stall_is_bounded_by_call_timeout(broker):
    # every counts request stalls longer than the call timeout: the
    # client must turn the stall into retries and give up in bounded
    # time instead of hanging for the stall duration
    policy = RetryPolicy(max_attempts=2, backoff_base=0.02, backoff_max=0.05, jitter=0.1)
    with inject_faults("stall@network:match=broker|counts,seconds=30", seed=1):
        nq = _client(broker, retry=policy, call_timeout=0.3)
        t0 = time.monotonic()
        with pytest.raises(BrokerUnreachable):
            nq.counts()
        assert time.monotonic() - t0 < 5.0
        nq.close()


def test_partition_heals_within_the_retry_budget(broker):
    # broker request numbering is global and starts at 1; request 2 is
    # the first post-hello call, which opens a 0.15s partition window
    with inject_faults("partition@network:match=broker|,attempts=2,seconds=0.15", seed=9):
        nq = _client(broker, retry=RetryPolicy(
            max_attempts=6, backoff_base=0.05, backoff_max=0.2, jitter=0.25))
        assert nq.counts()["done"] == 0
        assert nq.reconnects > 0
        nq.close()


def test_dead_broker_raises_unreachable(tmp_path):
    b = Broker(FileQueue(tmp_path / "q", lease_ttl=0.5), port=0)
    b.start()
    port = b.port
    b.serve_in_thread()
    b.stop()
    nq = NetQueue("127.0.0.1", port, retry=RetryPolicy(
        max_attempts=2, backoff_base=0.02, backoff_max=0.05, jitter=0.1))
    with pytest.raises(BrokerUnreachable, match="unreachable after 2 attempt"):
        nq.hello()


def test_drain_stops_as_disconnected_when_broker_dies(broker):
    nq = _client(broker)
    nq.submit(_jobs(2))
    broker.stop()
    nq.retry = RetryPolicy(max_attempts=2, backoff_base=0.02, backoff_max=0.05, jitter=0.1)
    stats = drain_queue(nq, worker="w0", batch=2, poll=0.05)
    assert stats.stopped == "disconnected"
    assert stats.executed == 0
    assert any("unreachable" in d for d in stats.degradations)
    nq.close()


# ----------------------------------------------------------------------
# CLI validation: wrong invocations die with one configuration error
# ----------------------------------------------------------------------
def test_worker_cli_requires_exactly_one_queue_source(tmp_path, capsys):
    assert main(["worker"]) == 2
    assert "exactly one queue" in capsys.readouterr().err
    assert main([
        "worker", "--queue-dir", str(tmp_path / "q"), "--broker", "127.0.0.1:1",
    ]) == 2


def test_worker_cli_rejects_bad_queue_dir(tmp_path, capsys):
    f = tmp_path / "a-file"
    f.write_text("x")
    assert main(["worker", "--queue-dir", str(f)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_worker_cli_exits_75_when_broker_absent(capsys):
    # port 1 is privileged and unbound: connect fails fast, and the
    # worker must exit with the restartable code, not crash
    os.environ["REPRO_NET_RETRIES"] = "2"
    try:
        assert main(["worker", "--broker", "127.0.0.1:1"]) == 75
    finally:
        del os.environ["REPRO_NET_RETRIES"]
    assert "unreachable" in capsys.readouterr().err


def test_sweep_cli_rejects_broker_flag_misuse(capsys):
    base = ["sweep", "--workload", "fpppp", "--what", "history", "--insts", "2000"]
    assert main(base + ["--broker", "127.0.0.1:1"]) == 2
    assert main(base + ["--backend", "tcp"]) == 2  # no broker anywhere
    assert main(base + [
        "--backend", "tcp", "--broker", "127.0.0.1:1", "--queue-dir", "/tmp/q",
    ]) == 2
    err = capsys.readouterr().err
    assert "--backend tcp" in err


def test_broker_cli_rejects_bad_listen_spec(tmp_path, capsys):
    assert main([
        "broker", "--queue-dir", str(tmp_path / "q"), "--listen", "nope",
    ]) == 2
    assert "--listen" in capsys.readouterr().err
