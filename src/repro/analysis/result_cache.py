"""Persistent, content-addressed result cache.

Simulation runs are pure functions of ``(workload, config, n_insts, seed,
software_prefetch, engine)`` plus the model itself, so their results can be
stored on disk and reused across processes and sessions.  Each result lives
in one JSON file named by the SHA-256 of a canonical encoding of all run
inputs plus :data:`MODEL_VERSION` — bumping the version tag invalidates
every cached result at once, which is the escape hatch whenever a change to
the simulator alters its outputs.

Cache location, in priority order: an explicit ``directory`` argument, the
``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro/``.

Only the serialisable subset of :class:`~repro.core.simulator
.SimulationResult` is stored (every scalar, both tally structures, and the
flattened stats tree); :func:`result_from_dict` rebuilds an equivalent
result object, so cached and fresh results are interchangeable for all
reporting code.  This module alone owns that payload format: a run
journal records only the digest :meth:`ResultCache.put` returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.diskio import (
    PressureGuard,
    atomic_write_json,
    default_cache_dir,
    parse_size,
    sweep_stale_tmp,
)
from repro.common.faults import fault_point
from repro.common.stats import Stats
from repro.core.classifier import PrefetchTally
from repro.core.simulator import SimulationResult
from repro.mem.cache import FillSource

#: Bump whenever a model change alters simulation outputs: every key derived
#: with the new tag misses against results stored under the old one.
MODEL_VERSION = "1"


def config_fingerprint(config: SimulationConfig) -> Dict[str, Any]:
    """The config's :meth:`~repro.common.config.SimulationConfig.to_dict`
    encoding, minus ``sanitize``.

    ``sanitize`` is excluded: the invariant sanitizer is read-only, so a
    sanitized run produces bit-identical counters to an unsanitized one
    and both must resolve to the same cache key.
    """
    data = config.to_dict()
    del data["sanitize"]
    return data


def run_key(
    workload: str,
    config: SimulationConfig,
    n_insts: int = 100_000,
    seed: int = 0,
    software_prefetch: bool = True,
    engine: str = "pipeline",
    version: str = MODEL_VERSION,
) -> str:
    """Stable content hash of one simulation run's complete inputs."""
    payload = {
        "version": version,
        "workload": workload,
        "config": config_fingerprint(config),
        "n_insts": n_insts,
        "seed": seed,
        "software_prefetch": software_prefetch,
        "engine": engine,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# SimulationResult <-> plain dict
# ----------------------------------------------------------------------
def _tally_to_dict(tally: PrefetchTally) -> Dict[str, int]:
    return dataclasses.asdict(tally)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return {
        "trace_name": result.trace_name,
        "filter_name": result.filter_name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "prefetch": _tally_to_dict(result.prefetch),
        "per_source": {
            src.name: _tally_to_dict(t) for src, t in result.per_source.items()
        },
        "l1_demand_accesses": result.l1_demand_accesses,
        "l1_demand_misses": result.l1_demand_misses,
        "l2_demand_accesses": result.l2_demand_accesses,
        "l2_demand_misses": result.l2_demand_misses,
        "l1_prefetch_fills": result.l1_prefetch_fills,
        "prefetch_line_traffic": result.prefetch_line_traffic,
        "demand_line_traffic": result.demand_line_traffic,
        "stats": result.stats.flat(),
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(
        trace_name=data["trace_name"],
        filter_name=data["filter_name"],
        instructions=int(data["instructions"]),
        cycles=int(data["cycles"]),
        prefetch=PrefetchTally(**data["prefetch"]),
        per_source={
            FillSource[name]: PrefetchTally(**t)
            for name, t in data["per_source"].items()
        },
        l1_demand_accesses=int(data["l1_demand_accesses"]),
        l1_demand_misses=int(data["l1_demand_misses"]),
        l2_demand_accesses=int(data["l2_demand_accesses"]),
        l2_demand_misses=int(data["l2_demand_misses"]),
        l1_prefetch_fills=int(data["l1_prefetch_fills"]),
        prefetch_line_traffic=int(data["prefetch_line_traffic"]),
        demand_line_traffic=int(data["demand_line_traffic"]),
        stats=Stats.from_flat(data["stats"]),
    )


# ----------------------------------------------------------------------
# Artifact integrity
# ----------------------------------------------------------------------
#: JSON key carrying the entry's own digest (excluded from the digest).
DIGEST_KEY = "sha256"


def payload_digest(data: Dict[str, Any]) -> str:
    """SHA-256 over the canonical encoding of an entry (minus its digest)."""
    body = {k: v for k, v in data.items() if k != DIGEST_KEY}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
#: Size budget for the cache directory, e.g. ``64k`` / ``200m`` / ``2g``
#: (or a plain byte count).  Unset means unbounded — the pre-budget
#: behaviour.
_BUDGET_ENV = "REPRO_CACHE_BUDGET"


def parse_budget(text: Optional[str]) -> Optional[int]:
    """Parse a size budget: bytes with an optional k/m/g suffix.

    ``None``/empty means no budget.  A malformed, non-finite or
    nonpositive value raises — a user who sets ``REPRO_CACHE_BUDGET=10gb``
    wants a bounded cache, not a silently unbounded one.
    """
    if text is None or not str(text).strip():
        return None
    return parse_size(str(text), what="cache budget")


def default_budget() -> Optional[int]:
    return parse_budget(os.environ.get(_BUDGET_ENV))


class ResultCache:
    """Content-addressed JSON store of simulation results.

    ``get`` is tolerant by design: a missing, corrupt, or structurally
    stale file is treated as a miss (and a corrupt file is removed), so a
    killed process or a format change can never wedge the cache.
    Quarantined entries are *counted* (``.stats``) so a degraded disk
    is distinguishable from a cold cache; construction also sweeps temp
    files orphaned by killed writers.

    With a size ``budget`` (explicit bytes, or the
    ``REPRO_CACHE_BUDGET`` environment variable — ``64k``/``200m``/
    ``2g``), the directory is kept under budget by least-recently-used
    eviction: every hit bumps its entry's mtime, and each write evicts
    oldest-read entries until the total fits.  Eviction is
    multi-process safe — an exclusive (non-blocking) lock file
    serialises evictors, and a process finding the lock busy simply
    skips its turn, since the holder is already shrinking the same
    directory.  Evictions are counted in ``.stats`` next to the
    quarantine counters.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike | str] = None,
        budget: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.budget_bytes = budget if budget is not None else default_budget()
        if self.budget_bytes is not None and self.budget_bytes <= 0:
            raise ValueError(f"cache budget must be positive (got {self.budget_bytes})")
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.evicted = 0
        self.pressure_skipped = 0
        # Disk-only guard: a ballooning RSS is the *runner's* problem
        # (workers drain and exit); persisting finished results is not.
        self._pressure = PressureGuard(self.directory, max_rss_bytes=None)
        self.stale_tmp_removed = sweep_stale_tmp(self.directory)

    @property
    def stats(self) -> Dict[str, int]:
        """Health counters: corruption shows up here, not as cold misses."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "evicted": self.evicted,
            "pressure_skipped": self.pressure_skipped,
            "budget_bytes": self.budget_bytes or 0,
            "stale_tmp_removed": self.stale_tmp_removed,
        }

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Tuple[SimulationResult, str]]:
        """The result stored under ``key`` and the digest :meth:`put`
        returned for it, or ``None``."""
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
            digest = data.get(DIGEST_KEY)
            if digest != payload_digest(data):
                # Bit rot, truncation, or a pre-digest entry: either way
                # the bytes cannot be trusted as a simulation result.
                raise ValueError("artifact digest mismatch")
            result = result_from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            self.quarantined += 1
            self.misses += 1
            return None
        try:
            os.utime(path)  # LRU bump: a hit is a "use" for the evictor
        except OSError:
            pass
        self.hits += 1
        return result, digest

    def put(self, key: str, result: SimulationResult | Dict[str, Any]) -> str:
        """Store ``result`` under ``key``; returns its payload digest, also
        when the write is skipped or lost (a resume then re-runs the job).

        ``result`` may instead be the payload :func:`result_to_dict` made
        of it, when the caller holds that already (a queue's done record
        carries one): it is stored as it arrived, not serialised again.
        """
        data = dict(result) if isinstance(result, dict) else result_to_dict(result)
        digest = data[DIGEST_KEY] = payload_digest(data)
        if self._pressure.check() is not None:
            # A nearly-full disk turns every write into a potential torn
            # entry; skipping is safe (the cache is a pure memo) and the
            # counter keeps the skip honest.
            self.pressure_skipped += 1
            return digest
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        try:
            atomic_write_json(path, data)  # readers never see partial files
            spec = fault_point("cache", key=key)
            if spec is not None and spec.kind in ("corrupt-cache", "corrupt-artifact"):
                if spec.kind == "corrupt-cache":
                    # A deliberately torn write: the fault models exactly
                    # the bytes the sealed-write helpers exist to prevent.
                    path.write_text("\x00 injected corruption")  # repro-lint: disable=RL007
                else:
                    # Valid JSON, wrong bytes: only the digest check can
                    # tell this apart from a genuine result.
                    data["instructions"] = int(data.get("instructions", 0)) + 1
                    path.write_text(json.dumps(data))  # repro-lint: disable=RL007
        except OSError:
            pass  # a lost memo write is a future miss, not an error
        self._enforce_budget()
        return digest

    def _enforce_budget(self) -> int:
        """Evict least-recently-used entries until the directory fits.

        Serialised across processes by a non-blocking exclusive lock: if
        another process holds it, that process is already shrinking this
        directory, so the current writer skips its turn rather than
        block a sweep on janitorial work.  Entries are ranked by mtime
        — which :meth:`get` bumps on every hit — so what goes first is
        what nothing has read for longest, never the entry just written
        (its mtime is the newest in the directory).
        """
        if self.budget_bytes is None:
            return 0
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-Unix fallback
            fcntl = None
        try:
            # Append mode: creates the lock file without truncating and
            # carries no record contents, so it stays outside the
            # sealed-write (RL007) contract that "w" writes opt into.
            lock = open(self.directory / ".evict.lock", "a")
        except OSError:
            return 0
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    return 0  # another process is already evicting
            entries = []
            total = 0
            for path in self.directory.glob("*.json"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
                total += st.st_size
            entries.sort(key=lambda e: (e[0], e[2].name))
            removed = 0
            for _, size, path in entries:
                if total <= self.budget_bytes:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    # A concurrent reader/evictor already freed it: the
                    # bytes are gone (count toward the budget math) but
                    # the eviction is *theirs* (don't count it here —
                    # two evictors must never double-count one file).
                    total -= size
                    continue
                except OSError:
                    continue
                total -= size
                removed += 1
            self.evicted += removed
            return removed
        finally:
            lock.close()

    def clear(self) -> int:
        """Delete every cached result; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.directory)!r}, hits={self.hits}, misses={self.misses})"
