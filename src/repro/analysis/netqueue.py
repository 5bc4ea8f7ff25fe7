"""TCP transport for the work queue: a broker front and a NetQueue client.

The shared-filesystem queue (:mod:`repro.analysis.workqueue`) gave
distributed sweeps durability, work stealing, and poison quarantine —
but only across hosts that share a directory.  This module carries the
*same queue protocol* over TCP so workers with no filesystem in common
can drain one sweep:

* :class:`Broker` (``repro-sim broker --queue-dir DIR --listen H:P``)
  is a deliberately thin network front: every request is translated
  into a :class:`~repro.analysis.workqueue.FileQueue` call against the
  broker's queue directory, so sealed-job durability, lease
  generations, clock-skew-immune heartbeats, stealing, and poison
  quarantine are **inherited, not reimplemented**.  Kill the broker
  with the sweep half done, restart it on the same ``--queue-dir``,
  and the queue state is exactly what the filesystem says it is.
* :class:`NetQueue` is the client half: the same
  claim/heartbeat/complete/steal/poison surface as ``FileQueue``, so
  :func:`repro.analysis.worker.drain_queue` drains a broker without
  knowing it left the machine.

Wire protocol: length-prefixed JSON frames — a 4-byte big-endian
length followed by one JSON object (``{"op": ..., ...}`` requests,
``{"ok": ...}`` responses), one request/response pair at a time per
connection.  Frames above :data:`_MAX_FRAME` are rejected; a short
read is a connection error, never a partial record.

Robustness rules (the reason this module exists):

* **Every client call retries** with capped exponential backoff and
  seeded jitter (a :class:`~repro.analysis.resilience.RetryPolicy`)
  plus a per-call socket timeout, so resets, stalls, and partitions
  inside the budget are absorbed, and past the budget surface as
  :class:`BrokerUnreachable` — which workers turn into the
  backoff-friendly pressure exit, not a crash.
* **Every mutating op is idempotent**, keyed by job content hash +
  lease generation: ``submit`` skips known keys, a replayed ``claim``
  is answered by *redelivering the caller's own live leases* (a lost
  response strands no work), ``complete`` is an atomic last-writer-
  wins replace of the ``done/`` record, so reconnect-and-replay after
  a reset or partial write always converges bit-identically.
* **Application errors never retry**: a response with ``ok: false``
  raises :class:`BrokerError` immediately — retrying a rejected
  request is how duplicate side effects are born.

Fault injection (the ``network`` site, chaos-tested from both ends):
``conn-reset`` drops the connection mid-call, ``stall`` freezes a peer
for ``seconds``, ``partial-write`` truncates a frame mid-send, and
``partition`` (broker side) resets every connection for ``seconds``
before healing.  Site keys are ``client|<op>`` and ``broker|<op>`` so
plans can target one direction and one operation.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.checkpoint import record_intact
from repro.analysis.parallel import SimulationJob, job_from_dict, job_to_dict
from repro.analysis.resilience import RetryPolicy, job_token
from repro.analysis.workqueue import _BEAT_FRACTION, Claim, FileQueue
from repro.common.diskio import atomic_write_json, env_num
from repro.common.faults import fault_point

BROKER_ENV = "REPRO_BROKER"
NET_RETRIES_ENV = "REPRO_NET_RETRIES"
NET_TIMEOUT_ENV = "REPRO_NET_TIMEOUT"

#: Per-call socket timeout (seconds) unless overridden.
DEFAULT_CALL_TIMEOUT = 10.0

#: Default client retry budget: ~6 attempts over a few seconds of
#: capped backoff — long enough to ride out a short partition, short
#: enough that a genuinely dead broker turns into a worker exit before
#: the supervisor's patience runs out.
NET_RETRY = RetryPolicy(
    max_attempts=6, backoff_base=0.1, backoff_factor=2.0, backoff_max=2.0, jitter=0.25
)

#: Ops whose replay after a connection error mutates broker state (the
#: replays are idempotent; the counter exists so transport health can
#: report how often idempotency was actually leaned on).
_MUTATING = frozenset({"submit", "complete", "release", "write-stats"})

#: The idempotency manifest: every op the client may execute under the
#: retry wrapper in :meth:`NetQueue._call`.  An op is listed only after
#: its replay-after-partial-effect story has been audited (submit keys
#: by job key, complete/release check the lease generation, write-stats
#: last-writer-wins; the rest are reads).  Lint rule RL010 enforces the
#: manifest in both directions: a ``_call`` on an undeclared op fails
#: the build, and a declared op no actual call site uses is flagged as
#: stale.  Application errors (``ok: false``) are *never* retried —
#: they raise :class:`BrokerError` before the loop can come around.
IDEMPOTENT_OPS = frozenset(
    {
        "hello",
        "submit",
        "heartbeat",
        "claim",
        "steal",
        "complete",
        "release",
        "outstanding",
        "counts",
        "is-done",
        "collect-done",
        "collect-quarantined",
        "poison-sweep",
        "write-stats",
        "read-stats",
    }
)

_LENGTH = struct.Struct(">I")

#: Frame cap: far above any real batch (a 10^5-job submit ships in
#: chunks anyway), low enough that a corrupt length prefix cannot make
#: a reader allocate the address space.
_MAX_FRAME = 64 * 1024 * 1024

#: Jobs per submit frame; bounds frame size on huge sweeps.
_SUBMIT_CHUNK = 2000


class BrokerUnreachable(ConnectionError):
    """The broker could not be reached within the client's retry budget."""


class BrokerError(RuntimeError):
    """The broker answered with an application error (never retried)."""


def parse_broker_spec(
    text: Optional[str], what: str = "--broker", allow_port_zero: bool = False
) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` with errors that name the flag and the fix."""
    spec = (text or "").strip()
    if not spec:
        raise ValueError(f"{what} must be HOST:PORT, e.g. 127.0.0.1:7077 (got an empty value)")
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host.strip("[]"):
        raise ValueError(
            f"{what} must be HOST:PORT, e.g. 127.0.0.1:7077 (got {spec!r})"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"{what} port must be an integer, e.g. 127.0.0.1:7077 "
            f"(got {port_text!r} in {spec!r})"
        ) from None
    low = 0 if allow_port_zero else 1
    if not low <= port <= 65535:
        raise ValueError(f"{what} port must be in [{low}, 65535] (got {port})")
    return host.strip("[]"), port


def net_retry_from_env() -> RetryPolicy:
    """The client retry policy, with ``REPRO_NET_RETRIES`` honoured."""
    attempts = env_num(NET_RETRIES_ENV, int, None)
    if attempts is None:
        return NET_RETRY
    return RetryPolicy(
        max_attempts=max(1, attempts),
        backoff_base=NET_RETRY.backoff_base,
        backoff_factor=NET_RETRY.backoff_factor,
        backoff_max=NET_RETRY.backoff_max,
        jitter=NET_RETRY.jitter,
    )


def net_timeout_from_env() -> float:
    timeout = env_num(NET_TIMEOUT_ENV, float, DEFAULT_CALL_TIMEOUT)
    if timeout <= 0:
        raise ValueError(f"{NET_TIMEOUT_ENV} must be positive (got {timeout})")
    return timeout


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _encode_frame(payload: Dict) -> bytes:
    blob = json.dumps(payload, separators=(",", ":")).encode()
    if len(blob) > _MAX_FRAME:
        raise ValueError(f"frame of {len(blob)} bytes exceeds the {_MAX_FRAME}-byte cap")
    return _LENGTH.pack(len(blob)) + blob


def _send_frame(sock: socket.socket, payload: Dict) -> None:
    sock.sendall(_encode_frame(payload))


def _send_truncated(sock: socket.socket, payload: Dict) -> None:
    """Send half a frame — the ``partial-write`` fault's weapon."""
    frame = _encode_frame(payload)
    sock.sendall(frame[: max(1, len(frame) // 2)])


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError(f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> Dict:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > _MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds the {_MAX_FRAME}-byte cap")
    data = json.loads(_recv_exact(sock, length).decode())
    if not isinstance(data, dict):
        raise ValueError("frame payload is not a JSON object")
    return data


def _encode_claim(claim: Claim) -> Dict:
    return {
        "key": claim.key,
        "token": claim.token,
        "generation": claim.generation,
        "stolen": claim.stolen,
        "lease": claim.path.name,
        "job": job_to_dict(claim.job),
    }


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class NetQueue:
    """The queue protocol spoken to a broker instead of a directory.

    Implements the :class:`~repro.analysis.workqueue.FileQueue` surface
    that :func:`~repro.analysis.worker.drain_queue` and the execution
    backends use — ``submit``/``claim``/``steal``/``heartbeat``/
    ``complete``/``release``/``collect_new``/``collect_quarantined``/
    ``poison_sweep``/``counts``/``outstanding``/``write_stats``/
    ``read_stats`` — so a worker drains a broker with the same code
    path it drains a local directory.

    One persistent connection, re-established on demand; a single lock
    serialises frames because the drain loop and its heartbeat thread
    share the instance.  Transport health lands in ``reconnects``
    (connections established after the first), ``retried_calls``
    (attempts after the first, any op) and ``replayed_ops`` (retried
    attempts of mutating ops — each one a live test of idempotency).

    The instance is picklable by design (lint rule RL002): the socket
    and lock are shed on ``__getstate__`` and lazily rebuilt, the same
    contract the result cache's sqlite handle follows.
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = None,
        call_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.retry = retry or net_retry_from_env()
        self.call_timeout = call_timeout if call_timeout is not None else net_timeout_from_env()
        if self.call_timeout <= 0:
            raise ValueError(f"call_timeout must be positive (got {self.call_timeout})")
        #: Updated from the broker's ``hello`` — the heartbeat cadence
        #: and staleness judgements belong to the broker's queue.
        self.lease_ttl = 30.0
        self.poison_threshold: Optional[int] = None
        self.broker_restarts = 0
        #: Where the broker's queue lives (informational: the directory
        #: is on the *broker's* host).
        self.queue_dir: Optional[str] = None
        #: Pressure guards and spawned-worker logs need a local anchor;
        #: the broker's directory is not reachable from here.
        self.root = Path(tempfile.gettempdir())
        self.quarantine_dir = self.root / "repro-net-quarantine"
        self.logs_dir = self.root / "repro-net-logs"
        #: Done/quarantine records rejected client-side for a digest
        #: mismatch (the network is one more way bytes can rot).
        self.quarantined = 0
        #: Poison jobs quarantined via this client's ``poison_sweep``.
        self.poisoned = 0
        self.reconnects = 0
        self.retried_calls = 0
        self.replayed_ops = 0
        self._sock: Optional[socket.socket] = None
        self._io_lock = threading.Lock()
        self._ever_connected = False
        self._beats = 0
        self._last_beat = 0.0

    # -- pickling: shed the live handles (RL002 pool-safety contract) --
    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state["_sock"] = None
        state.pop("_io_lock", None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._sock = None
        self._io_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = socket.create_connection((self.host, self.port), timeout=self.call_timeout)
        sock.settimeout(self.call_timeout)
        self._sock = sock
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True
        return sock

    def _roundtrip(self, op: str, payload: Dict, attempt: int) -> Dict:
        sock = self._connect()
        spec = fault_point("network", key=f"client|{op}", attempt=attempt)
        if spec is not None:
            if spec.kind in ("conn-reset", "partition"):
                self._drop_connection()
                raise ConnectionResetError(f"injected conn-reset on client|{op}")
            if spec.kind == "stall":
                time.sleep(spec.seconds)
            elif spec.kind == "partial-write":
                _send_truncated(sock, {"op": op, **payload})
                self._drop_connection()
                raise ConnectionResetError(f"injected partial-write on client|{op}")
        _send_frame(sock, {"op": op, **payload})
        return _recv_frame(sock)

    def _call(self, op: str, payload: Optional[Dict] = None) -> Dict:
        """One op with the full retry envelope; raises past the budget."""
        payload = payload or {}
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.retried_calls += 1
                if op in _MUTATING:
                    self.replayed_ops += 1
                time.sleep(self.retry.delay(attempt, f"net|{op}"))
            try:
                with self._io_lock:
                    response = self._roundtrip(op, payload, attempt)
            except (OSError, ValueError) as exc:  # resets, timeouts, torn frames
                last_error = exc
                with self._io_lock:
                    self._drop_connection()
                continue
            if not response.get("ok", False):
                raise BrokerError(f"{op}: {response.get('error', 'unknown broker error')}")
            return response
        raise BrokerUnreachable(
            f"broker {self.host}:{self.port} unreachable after "
            f"{self.retry.max_attempts} attempt(s) of {op!r}: {last_error!r}"
        )

    def close(self) -> None:
        with self._io_lock:
            self._drop_connection()

    # ------------------------------------------------------------------
    # Queue surface
    # ------------------------------------------------------------------
    def hello(self) -> Dict:
        """Handshake: verifies reachability, adopts the broker's queue
        parameters (lease TTL drives the client heartbeat cadence)."""
        response = self._call("hello")
        self.lease_ttl = float(response.get("lease_ttl", self.lease_ttl))
        threshold = response.get("poison_threshold")
        self.poison_threshold = int(threshold) if threshold is not None else None
        self.broker_restarts = int(response.get("broker_restarts", 0))
        self.queue_dir = response.get("queue_dir")
        return response

    def submit(self, jobs: Sequence[SimulationJob]) -> int:
        added = 0
        for start in range(0, len(jobs), _SUBMIT_CHUNK):
            chunk = jobs[start : start + _SUBMIT_CHUNK]
            response = self._call(
                "submit",
                {"jobs": [
                    {"key": job.key(), "token": job_token(job), "job": job_to_dict(job)}
                    for job in chunk
                ]},
            )
            added += int(response.get("added", 0))
        return added

    def heartbeat(self, worker: str, force: bool = False) -> bool:
        """Publish a beat through the broker (rate-limited locally).

        Mirrors :meth:`FileQueue.heartbeat` including the
        ``stale-lease`` drop fault, so existing chaos plans starve a
        TCP worker's heartbeat exactly like a shared-FS worker's.
        Transport failures propagate as :class:`BrokerUnreachable`:
        the heartbeat thread counts them toward its crashed flag, and
        the drain loop stops claiming on a dead heartbeat.
        """
        now = time.monotonic()
        if not force and now - self._last_beat < self.lease_ttl * _BEAT_FRACTION:
            return False
        spec = fault_point("stale-lease", key=worker, attempt=self._beats)
        if spec is not None and spec.kind == "drop":
            return False
        self._beats += 1
        self._last_beat = now
        response = self._call("heartbeat", {"worker": worker})
        return bool(response.get("beat", False))

    def _decode_claims(self, items: Iterable[Dict]) -> List[Claim]:
        claims = []
        for item in items:
            try:
                job = job_from_dict(item["job"])
                claims.append(Claim(
                    key=str(item["key"]),
                    job=job,
                    token=str(item.get("token") or job_token(job)),
                    path=Path(str(item["lease"])),
                    generation=int(item["generation"]),
                    stolen=bool(item.get("stolen", False)),
                ))
            except (KeyError, TypeError, ValueError):
                self.quarantined += 1
        return claims

    def claim(self, worker: str, limit: int = 1) -> List[Claim]:
        response = self._call("claim", {"worker": worker, "limit": int(limit)})
        return self._decode_claims(response.get("claims") or [])

    def steal(self, worker: str, limit: int = 1) -> List[Claim]:
        response = self._call("steal", {"worker": worker, "limit": int(limit)})
        return self._decode_claims(response.get("claims") or [])

    def complete(self, claim: Claim, record: Dict) -> None:
        self._call("complete", {
            "key": claim.key,
            "generation": claim.generation,
            "lease": claim.path.name,
            "token": claim.token,
            "record": record,
        })

    def release(self, claim: Claim) -> None:
        try:
            self._call("release", {
                "key": claim.key,
                "generation": claim.generation,
                "lease": claim.path.name,
            })
        except (BrokerUnreachable, BrokerError):
            pass  # best-effort, like FileQueue.release swallowing OSError

    def outstanding(self) -> Tuple[int, int]:
        response = self._call("outstanding")
        jobs, leases = response.get("outstanding", (0, 0))
        return int(jobs), int(leases)

    def counts(self) -> Dict[str, int]:
        counts = dict(self._call("counts").get("counts") or {})
        # Read-side quarantines are per-observer, exactly like FileQueue
        # instance counters: add what *this* client rejected.
        counts["quarantined"] = int(counts.get("quarantined", 0)) + self.quarantined
        return counts

    def is_done(self, key: str) -> bool:
        return bool(self._call("is-done", {"key": key}).get("done", False))

    def collect_new(self, seen: Set[str]) -> Iterable[Tuple[str, Dict]]:
        response = self._call("collect-done", {"seen": sorted(seen)})
        for item in response.get("records") or []:
            try:
                key, record = str(item[0]), dict(item[1])
            except (TypeError, ValueError, IndexError):
                self.quarantined += 1
                continue
            if not record_intact(record):
                # The seal travelled the wire with the record; a client
                # never trusts bytes the network had a chance to rot.
                self.quarantined += 1
                continue
            seen.add(key)
            yield key, record

    def collect_quarantined(self) -> Dict[str, Dict]:
        response = self._call("collect-quarantined")
        out = {}
        for key, record in (response.get("records") or {}).items():
            record = dict(record)
            if not record_intact(record):
                self.quarantined += 1
                continue
            out[str(key)] = record
        return out

    def poison_sweep(self) -> int:
        swept = int(self._call("poison-sweep").get("swept", 0))
        self.poisoned += swept
        return swept

    def write_stats(self, worker: str, stats: Dict) -> None:
        try:
            self._call("write-stats", {"worker": worker, "stats": stats})
        except (BrokerUnreachable, BrokerError):
            pass  # stats are telemetry; losing them must not fail a drain

    def read_stats(self) -> List[Dict]:
        return [dict(s) for s in self._call("read-stats").get("stats") or []]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetQueue({self.host}:{self.port}, reconnects={self.reconnects}, "
            f"retried={self.retried_calls})"
        )


# ----------------------------------------------------------------------
# Broker
# ----------------------------------------------------------------------
class Broker:
    """The network front of one queue directory.

    Deliberately thin: every op is one :class:`FileQueue` call under a
    single dispatch lock (the queue is multi-*process* safe already;
    the lock protects the single instance's observation state from the
    per-connection threads).  All durable state lives in the queue
    directory, which is what makes the broker crash-recoverable: a
    restarted broker on the same ``--queue-dir`` resumes exactly where
    the filesystem says the sweep is, and ``broker/state.json`` counts
    the restarts for the transport-health report.

    Not picklable, on purpose — a broker is a process's listening
    socket, not a value (and lint rule RL002 would rightly object to
    one crossing a pool boundary).
    """

    def __init__(self, queue: FileQueue, host: str = "127.0.0.1", port: int = 0) -> None:
        self.queue = queue
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._requests = 0
        self._partition_until = 0.0
        self.restarts = self._record_start()

    def __reduce__(self):
        raise TypeError("a Broker holds a listening socket and cannot be pickled")

    def _record_start(self) -> int:
        """Persist the start count; restarts = starts - 1 survives crashes."""
        state_dir = self.queue.root / "broker"
        state_dir.mkdir(parents=True, exist_ok=True)
        path = state_dir / "state.json"
        try:
            with open(path) as fh:
                starts = int(json.load(fh).get("starts", 0))
        except (OSError, ValueError, json.JSONDecodeError):
            starts = 0
        starts += 1
        try:
            atomic_write_json(path, {"starts": starts})
        except OSError:
            pass
        return starts - 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind and listen (port 0 picks a free port; ``self.port`` updates)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener

    def serve_forever(self) -> None:
        if self._listener is None:
            self.start()
        assert self._listener is not None
        while not self._halt.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us (stop())
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name=f"repro-broker-conn-{len(self._threads)}",
            )
            self._threads.append(thread)
            thread.start()

    def serve_in_thread(self) -> threading.Thread:
        """Start + serve on a daemon thread (tests and embedded use)."""
        if self._listener is None:
            self.start()
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name="repro-broker-accept")
        thread.start()
        return thread

    def stop(self) -> None:
        self._halt.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(0.5)
        try:
            while not self._halt.is_set():
                try:
                    request = _recv_frame(conn)
                except socket.timeout:
                    continue  # idle connection; re-check the halt flag
                with self._lock:
                    self._requests += 1
                    count = self._requests
                op = str(request.get("op", ""))
                spec = fault_point("network", key=f"broker|{op}", attempt=count)
                if spec is not None:
                    if spec.kind == "partition":
                        # The whole broker goes dark: every connection is
                        # reset on sight until the window heals.
                        self._partition_until = max(
                            self._partition_until, time.monotonic() + spec.seconds
                        )
                        return
                    if spec.kind == "conn-reset":
                        return  # close without replying
                    if spec.kind == "stall":
                        time.sleep(spec.seconds)
                if time.monotonic() < self._partition_until:
                    return
                try:
                    with self._lock:
                        response = self._dispatch(op, request)
                except Exception as exc:  # noqa: BLE001 - per-request isolation
                    response = {"ok": False, "error": repr(exc)}
                if spec is not None and spec.kind == "partial-write":
                    _send_truncated(conn, response)
                    return
                _send_frame(conn, response)
        except (OSError, ValueError, ConnectionError):
            pass  # client went away or spoke garbage; the connection dies
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _lease_path(self, name: str) -> Path:
        """A lease filename from the wire, confined to the leases dir."""
        if not name or name != Path(name).name or name.startswith("."):
            raise ValueError(f"invalid lease name {name!r}")
        return self.queue.leases_dir / name

    def _claim_from_wire(self, request: Dict) -> Claim:
        return Claim(
            key=str(request["key"]),
            job=None,  # type: ignore[arg-type] - complete/release never touch it
            token=str(request.get("token", "")),
            path=self._lease_path(str(request["lease"])),
            generation=int(request["generation"]),
        )

    def _redeliver(self, worker: str, limit: int) -> List[Dict]:
        """The caller's own live leases, re-encoded.

        A claim or steal whose *response* was lost left the work leased
        to a worker that never heard about it; without redelivery the
        worker's own heartbeats would keep those leases fresh forever —
        unstealable, unrun.  Answering a (re)claim with the caller's
        existing leases first makes claim replay idempotent.
        """
        items: List[Dict] = []
        for key, generation, owner, path in self.queue.leases():
            if len(items) >= limit:
                break
            if owner != worker:
                continue
            if self.queue.is_done(key):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            claim = self.queue._open_claim(path, key, generation=generation,
                                           stolen=generation > 0)
            if claim is not None:
                items.append(_encode_claim(claim))
        return items

    def _dispatch(self, op: str, request: Dict) -> Dict:
        queue = self.queue
        if op == "hello":
            return {
                "ok": True,
                "protocol": 1,
                "lease_ttl": queue.lease_ttl,
                "poison_threshold": queue.poison_threshold,
                "broker_restarts": self.restarts,
                "queue_dir": str(queue.root),
            }
        if op == "submit":
            jobs = []
            for item in request.get("jobs") or []:
                jobs.append(job_from_dict(item["job"]))
            return {"ok": True, "added": queue.submit(jobs)}
        if op == "heartbeat":
            beat = queue.heartbeat(str(request.get("worker", "")), force=True)
            return {"ok": True, "beat": beat}
        if op == "claim":
            worker = str(request.get("worker", ""))
            limit = max(0, int(request.get("limit", 1)))
            items = self._redeliver(worker, limit)
            if len(items) < limit:
                items += [_encode_claim(c)
                          for c in queue.claim(worker, limit=limit - len(items))]
            return {"ok": True, "claims": items}
        if op == "steal":
            worker = str(request.get("worker", ""))
            limit = max(0, int(request.get("limit", 1)))
            return {"ok": True,
                    "claims": [_encode_claim(c) for c in queue.steal(worker, limit=limit)]}
        if op == "complete":
            queue.complete(self._claim_from_wire(request), dict(request.get("record") or {}))
            return {"ok": True}
        if op == "release":
            queue.release(self._claim_from_wire(request))
            return {"ok": True}
        if op == "outstanding":
            return {"ok": True, "outstanding": list(queue.outstanding())}
        if op == "counts":
            return {"ok": True, "counts": queue.counts()}
        if op == "is-done":
            return {"ok": True, "done": queue.is_done(str(request.get("key", "")))}
        if op == "collect-done":
            seen = set(str(k) for k in request.get("seen") or [])
            records = [[key, record] for key, record in queue.collect_new(seen)]
            return {"ok": True, "records": records}
        if op == "collect-quarantined":
            return {"ok": True, "records": queue.collect_quarantined()}
        if op == "poison-sweep":
            return {"ok": True, "swept": queue.poison_sweep()}
        if op == "write-stats":
            queue.write_stats(str(request.get("worker", "")), dict(request.get("stats") or {}))
            return {"ok": True}
        if op == "read-stats":
            return {"ok": True, "stats": queue.read_stats()}
        return {"ok": False, "error": f"unknown op {op!r} (protocol mismatch?)"}
