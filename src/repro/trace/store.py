"""On-disk trace cache and zero-copy shared-memory trace handoff.

Trace synthesis is deterministic but not free: a million-instruction
workload takes longer to *generate* than the kernel engine takes to
*simulate* it, and a parallel sweep regenerates the same trace once per
worker process.  This module removes both costs:

* :class:`TraceStore` persists generated traces as ``.npz`` files keyed
  by the SHA-256 of their complete inputs (workload, length, seed,
  software-prefetch settings, generator version), exactly mirroring the
  :mod:`repro.analysis.result_cache` conventions — same environment
  variable, same atomic-replace writes, same corrupt-file tolerance.
* :func:`share_trace` / :func:`attach_trace` move a trace between
  processes through POSIX shared memory: the parent materialises the
  four columns once into one segment, workers map them read-only with
  no copy and no pickling of multi-megabyte arrays.

Sharing protocol (the part that is easy to get wrong):

1. the parent calls :func:`share_trace` and keeps the returned
   :class:`SharedTrace` alive while any worker might attach;
2. each worker calls :func:`attach_trace` with the (picklable)
   :class:`SharedTraceHandle`, uses the trace, then calls
   ``detach()`` on the attachment;
3. the parent finally calls :meth:`SharedTrace.close` which unlinks
   the segment.

Workers never unlink: the owner does, exactly once, in step 3.  (On
Python < 3.13 an attachment also registers with the resource tracker;
because workers inherit the owner's tracker process this is a no-op —
see :func:`attach_trace`.)
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.common.diskio import PressureGuard, atomic_write_bytes, sweep_stale_tmp
from repro.common.faults import fault_point
from repro.trace.stream import Trace

#: Bump whenever workload generators or the software-prefetch inserter
#: change their output: every key derived with the new tag misses against
#: traces stored under the old one.
TRACE_VERSION = "1"

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_store_dir() -> Path:
    env = os.environ.get(_CACHE_DIR_ENV)
    base = Path(env) if env else Path.home() / ".cache" / "repro"
    return base / "traces"


def trace_key(
    workload: str,
    n_insts: int = 100_000,
    seed: int = 0,
    software_prefetch: bool = True,
    lookahead_lines: int = 4,
    version: str = TRACE_VERSION,
) -> str:
    """Stable content hash of one trace's complete generation inputs."""
    payload = {
        "version": version,
        "workload": workload,
        "n_insts": n_insts,
        "seed": seed,
        "software_prefetch": software_prefetch,
        "lookahead_lines": lookahead_lines,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_digest(trace: Trace) -> str:
    """SHA-256 over the trace's column bytes and name.

    Stored alongside the columns in every ``.npz`` and re-derived on
    load, so a flipped bit that still parses as a valid archive (the
    failure mode plain structural checks cannot see) is caught instead
    of silently simulated.
    """
    h = hashlib.sha256()
    h.update(trace.iclass.tobytes())
    h.update(trace.pc.tobytes())
    h.update(trace.addr.tobytes())
    h.update(trace.taken.tobytes())
    h.update(trace.name.encode())
    return h.hexdigest()


class TraceStore:
    """Content-addressed ``.npz`` store of generated traces.

    ``get`` is tolerant by design: a missing, corrupt, or structurally
    stale file is treated as a miss (and a corrupt file is removed), so
    a killed process or a format change can never wedge the store.
    Quarantined entries are *counted* (``.stats``) so a degraded disk is
    distinguishable from a cold store; construction also sweeps temp
    files orphaned by killed writers.
    """

    def __init__(self, directory: Optional[os.PathLike | str] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_store_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.pressure_skipped = 0
        # Disk-only guard (see ResultCache): traces are rebuildable, so
        # skipping a write under pressure costs time, never correctness.
        self._pressure = PressureGuard(self.directory, max_rss_bytes=None)
        self.stale_tmp_removed = sweep_stale_tmp(self.directory)

    @property
    def stats(self) -> Dict[str, int]:
        """Health counters: corruption shows up here, not as cold misses."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "pressure_skipped": self.pressure_skipped,
            "stale_tmp_removed": self.stale_tmp_removed,
        }

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def get(self, key: str) -> Optional[Trace]:
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                trace = Trace(
                    data["iclass"],
                    data["pc"],
                    data["addr"],
                    data["taken"],
                    name=str(data["name"][()]),
                )
                # Integrity before structure: a missing digest (pre-digest
                # file or foreign writer) raises KeyError and lands in the
                # same quarantine path as a mismatch.
                stored = str(data["digest"][()])
                if stored != trace_digest(trace):
                    raise ValueError("trace artifact digest mismatch")
                trace.validate()
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, KeyError, ValueError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, key: str, trace: Trace) -> None:
        if self._pressure.check() is not None:
            self.pressure_skipped += 1
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        try:
            digest = trace_digest(trace)
            spec = fault_point("cache", key=key)
            addr = trace.addr
            if spec is not None and spec.kind == "corrupt-artifact" and len(addr):
                # Structurally valid archive, stale digest: one line address
                # nudged after digesting.  Only the digest check can see it.
                addr = addr.copy()
                addr[0] ^= np.uint64(64)
            # Serialise to memory first: np.savez appends ``.npz`` to
            # unknown suffixes, which would break the atomic rename.
            buf = io.BytesIO()
            np.savez(
                buf,
                iclass=trace.iclass,
                pc=trace.pc,
                addr=addr,
                taken=trace.taken,
                name=np.asarray(trace.name),
                digest=np.asarray(digest),
            )
            atomic_write_bytes(path, buf.getvalue())
            if spec is not None and spec.kind == "corrupt-cache":
                # Deliberately torn bytes: the fault models exactly what
                # the sealed-write helper exists to prevent.
                path.write_bytes(b"\x00 injected corruption")  # repro-lint: disable=RL007
        except OSError:
            pass  # a lost memo write is a future miss, not an error

    def get_or_build(
        self,
        workload: str,
        n_insts: int = 100_000,
        seed: int = 0,
        software_prefetch: bool = True,
        lookahead_lines: int = 4,
    ) -> Trace:
        """The store's main entry point: cached trace, or build-and-cache."""
        key = trace_key(workload, n_insts, seed, software_prefetch, lookahead_lines)
        trace = self.get(key)
        if trace is not None:
            return trace
        from repro.workloads import build_trace  # local: avoids an import cycle

        trace = build_trace(workload, n_insts, seed, software_prefetch, lookahead_lines)
        self.put(key, trace)
        return trace

    def clear(self) -> int:
        """Delete every stored trace; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.npz"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.npz"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self.directory)!r}, hits={self.hits}, misses={self.misses})"


# ----------------------------------------------------------------------
# Shared-memory handoff
# ----------------------------------------------------------------------
#: Every live owner-side segment, so an abnormal exit (uncaught
#: exception, ``sys.exit`` mid-sweep) still unlinks them: ``close()`` is
#: idempotent and drops the entry via weak reference, and the ``atexit``
#: hook closes whatever is left.  A SIGKILL still strands segments —
#: nothing in-process can help there — but every Python-visible exit
#: path is covered.
_LIVE_SEGMENTS: "weakref.WeakSet[SharedTrace]" = weakref.WeakSet()


def _close_leftover_segments() -> None:  # pragma: no cover - exit hook
    for segment in list(_LIVE_SEGMENTS):
        segment.close()


atexit.register(_close_leftover_segments)


@dataclass(frozen=True)
class SharedTraceHandle:
    """Everything a worker needs to map a shared trace: plain picklable data."""

    shm_name: str
    length: int
    trace_name: str


def _layout(n: int) -> tuple[int, int, int, int, int]:
    """Byte offsets of (pc, addr, iclass, taken) and the total size.

    The two ``uint64`` columns lead so they stay 8-byte aligned; the two
    1-byte columns follow.
    """
    pc_off = 0
    addr_off = 8 * n
    iclass_off = 16 * n
    taken_off = 17 * n
    return pc_off, addr_off, iclass_off, taken_off, 18 * n


class SharedTrace:
    """Owner side of a shared trace segment (created by :func:`share_trace`).

    Keep it alive while workers may attach; ``close()`` unlinks the
    segment.  Usable as a context manager.
    """

    def __init__(self, shm, handle: SharedTraceHandle) -> None:
        self._shm = shm
        self.handle = handle

    def close(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass
            self._shm = None

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()


class TraceAttachment:
    """Worker side of a shared trace segment: the trace plus its mapping.

    The :class:`~repro.trace.stream.Trace` columns are views straight
    into the shared segment — zero copies — so the mapping must stay
    open for as long as the trace is used; call ``detach()`` after.
    """

    def __init__(self, shm, trace: Trace) -> None:
        self._shm = shm
        self.trace = trace

    def detach(self) -> None:
        if self._shm is None:
            return
        self.trace = None  # type: ignore[assignment]  # drop buffer views first
        try:
            self._shm.close()
        except BufferError:
            # The caller still holds views into the mapping, so it cannot
            # be unmapped yet.  Keep the handle: a later detach (after the
            # views die) finishes the job, and so does garbage collection.
            return
        except OSError:
            pass
        self._shm = None

    def __enter__(self) -> Trace:
        return self.trace

    def __exit__(self, *exc) -> None:
        self.detach()


def share_trace(trace: Trace) -> SharedTrace:
    """Copy ``trace`` into a fresh shared-memory segment (parent side).

    Raises ``OSError`` when shared memory is unavailable (including via
    an injected ``shm-unavailable`` fault); callers fall back to
    per-worker trace synthesis.
    """
    from multiprocessing import shared_memory

    spec = fault_point("shm", key=trace.name)
    if spec is not None and spec.kind == "shm-unavailable":
        raise OSError("injected fault: shared memory unavailable")

    n = len(trace)
    pc_off, addr_off, iclass_off, taken_off, total = _layout(n)
    shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    buf = shm.buf
    np.frombuffer(buf, dtype=np.uint64, count=n, offset=pc_off)[:] = trace.pc
    np.frombuffer(buf, dtype=np.uint64, count=n, offset=addr_off)[:] = trace.addr
    np.frombuffer(buf, dtype=np.uint8, count=n, offset=iclass_off)[:] = trace.iclass
    np.frombuffer(buf, dtype=np.bool_, count=n, offset=taken_off)[:] = trace.taken
    handle = SharedTraceHandle(shm_name=shm.name, length=n, trace_name=trace.name)
    shared = SharedTrace(shm, handle)
    _LIVE_SEGMENTS.add(shared)
    return shared


def attach_trace(handle: SharedTraceHandle) -> TraceAttachment:
    """Map a shared trace read-only in this process (worker side)."""
    from multiprocessing import shared_memory

    # Python < 3.13 registers even a plain attachment with the resource
    # tracker.  That is harmless here — multiprocessing children inherit
    # the parent's tracker process, whose registry is a set, so the
    # attach-side register is a no-op and the owner's ``unlink`` retires
    # the entry exactly once.  (A process *not* descended from the owner
    # would bring its own tracker and steal the segment at exit; pass
    # handles only parent -> worker, as :func:`run_jobs` does.)
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    n = handle.length
    pc_off, addr_off, iclass_off, taken_off, _ = _layout(n)
    buf = shm.buf
    trace = Trace(
        np.frombuffer(buf, dtype=np.uint8, count=n, offset=iclass_off),
        np.frombuffer(buf, dtype=np.uint64, count=n, offset=pc_off),
        np.frombuffer(buf, dtype=np.uint64, count=n, offset=addr_off),
        np.frombuffer(buf, dtype=np.bool_, count=n, offset=taken_off),
        name=handle.trace_name,
    )
    return TraceAttachment(shm, trace)
