"""On-disk, content-addressed cache of generated traces.

Trace synthesis is deterministic but not free: a million-instruction
workload takes longer to *generate* than the kernel engine takes to
*simulate* it.  :class:`TraceStore` persists generated traces as
``.npz`` files keyed by the SHA-256 of their complete inputs (workload,
length, seed, software-prefetch settings, generator version), exactly
mirroring the :mod:`repro.analysis.result_cache` conventions — same
environment variable, same atomic-replace writes, same corrupt-file
tolerance.

Within one batch each distinct trace is acquired once
(:func:`repro.analysis.resilience.acquire_trace`); a process pool's
workers read the parent's copy, inherited by fork, and never touch the
store themselves.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
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
