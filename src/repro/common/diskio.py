"""Shared atomic-write plumbing for the on-disk stores.

Every durable record in the distributed layer — content-addressed store
entries (:mod:`repro.analysis.result_cache`, :mod:`repro.trace.store`),
queue job/lease/done/heartbeat files (:mod:`repro.analysis.workqueue`),
and broker state (:mod:`repro.analysis.netqueue`) — is written through a
sibling temp file and ``os.replace`` so readers never observe a partial
entry.  :func:`atomic_write_json` and :func:`atomic_write_bytes` are the
*only* sanctioned ways to land such a record; lint rule RL007 rejects a
bare ``open(path, "w")`` in any persistence module, because one torn
write in a queue directory is a corrupt lease some worker will trust.
The helpers here also cover the two failure modes that the
temp-and-replace convention leaves open on its own:

* **Same-process collisions** — two threads share a PID, so a
  ``.tmp.<pid>`` suffix alone lets them clobber each other's in-flight
  write; :func:`tmp_path_for` adds a process-wide counter.
* **Orphaned temp files** — a writer killed between ``write`` and
  ``replace`` leaves its temp file behind forever;
  :func:`sweep_stale_tmp` reclaims anything old enough that no live
  write can own it (stores call it on construction).

It is also home to the **resource-pressure guard**: a full disk or a
ballooning resident set should make writers back off *before* a write
fails halfway, not after.  :class:`PressureGuard` packages the free-disk
and RSS checks (with ``enospc``/``mem-pressure`` fault hooks at the
``pressure`` site for chaos testing) so queue workers and the
content-addressed stores all judge pressure the same way.

As a leaf module it also holds the stores' common root
(:func:`default_cache_dir`) and the numeric environment readers
(:func:`env_num`, :func:`parse_size`), which reject a malformed value.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

#: Temp files older than this are presumed orphaned by a killed writer.
STALE_TMP_SECONDS = 3600.0

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Uniquifies tmp paths *within* a process; ``itertools.count`` is
#: effectively atomic under CPython, which is all two threads need.
_TMP_COUNTER = itertools.count()


def tmp_path_for(path: Path) -> Path:
    """A collision-free sibling temp path: ``<name>.tmp.<pid>.<n>``."""
    return path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}")


def default_cache_dir() -> Path:
    """Root of the on-disk caches: ``REPRO_CACHE_DIR``, else
    ``~/.cache/repro``.  The result cache lives here; traces, compiled
    kernels and run journals in ``traces/``, ``ckernel/`` and ``runs/``."""
    env = os.environ.get(_CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def sweep_stale_tmp(
    directory: Path, max_age: float = STALE_TMP_SECONDS, pattern: str = "*.tmp.*"
) -> int:
    """Remove files matching ``pattern`` (by default orphaned temp
    files) older than ``max_age`` seconds.

    Best-effort on every step — a racing sweeper, a vanishing file, or a
    missing directory all count as "nothing to do".
    """
    removed = 0
    try:
        cutoff = time.time() - max_age
        for tmp in directory.glob(pattern):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
    except OSError:
        pass
    return removed


# --------------------------------------------------------------------------
# Sealed record writes (the RL007 contract)
# --------------------------------------------------------------------------

def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Land ``blob`` at ``path`` atomically: temp sibling, then replace.

    A reader racing this call sees either the old file or the complete
    new one, never a torso.  On any ``OSError`` the temp file is cleaned
    up best-effort and the error re-raised — the caller decides whether
    a lost write is fatal (a queue record) or shrug-worthy (a cache
    memo).
    """
    tmp = tmp_path_for(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Serialise ``payload`` and land it atomically (see
    :func:`atomic_write_bytes` for the failure contract)."""
    atomic_write_bytes(path, json.dumps(payload).encode())


# --------------------------------------------------------------------------
# Resource-pressure guard
# --------------------------------------------------------------------------

#: Free-disk floor (bytes) below which writers back off; override with
#: ``REPRO_MIN_FREE_BYTES`` (k/m/g suffixes accepted).
DEFAULT_MIN_FREE_BYTES = 32 * 1024 * 1024

MIN_FREE_ENV = "REPRO_MIN_FREE_BYTES"
MAX_RSS_ENV = "REPRO_MAX_RSS"


def parse_size(text: str, what: str = "size") -> int:
    """Parse a byte count with an optional ``k``/``m``/``g`` suffix; a
    malformed, non-finite or nonpositive count raises ``ValueError``."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, factor in (("k", 1024), ("m", 1024**2), ("g", 1024**3)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = factor
            break
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # int() of nan / inf
        raise ValueError(
            f"{what} must be a byte count with an optional k/m/g suffix, got {text!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {text!r}")
    return value


def env_num(name: str, cast, default):
    """Environment variable ``name`` converted by ``cast`` (``int`` or
    ``float``), or ``default`` when it is unset or empty; a malformed
    value raises ``ValueError`` naming the variable."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {cast.__name__}") from None


def _env_size(name: str, default: Optional[int]) -> Optional[int]:
    text = os.environ.get(name)
    return parse_size(text, what=name) if text else default


def default_min_free_bytes() -> int:
    """The effective free-disk floor (env override or the default)."""
    return _env_size(MIN_FREE_ENV, DEFAULT_MIN_FREE_BYTES)


def default_max_rss_bytes() -> Optional[int]:
    """The RSS ceiling from the environment, or ``None`` (unbounded)."""
    return _env_size(MAX_RSS_ENV, None)


def free_disk_bytes(path: Path) -> Optional[int]:
    """Free bytes on the filesystem holding ``path`` (or its nearest
    existing ancestor), ``None`` if the platform cannot say."""
    probe = Path(path)
    while not probe.exists() and probe.parent != probe:
        probe = probe.parent
    try:
        return shutil.disk_usage(probe).free
    except OSError:
        return None


def current_rss_bytes() -> Optional[int]:
    """This process's resident-set size in bytes, best effort.

    ``/proc/self/statm`` gives the live RSS on Linux; elsewhere we fall
    back to ``ru_maxrss`` (a high-water mark — conservative, which is
    the right direction for a pressure check) or give up with ``None``.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


@dataclass
class PressureGuard:
    """Periodic free-disk / RSS checks with chaos-test fault hooks.

    ``check()`` returns ``None`` when it is safe to keep writing, or a
    one-line human-readable reason when the caller should drain and
    exit (worker) or skip the write (store).  Each call visits the
    ``pressure`` fault site with this guard's key and a monotonically
    increasing attempt number, so plans like
    ``enospc@pressure:attempts=1`` open deterministic pressure windows.
    """

    path: Path
    min_free_bytes: int = field(default_factory=default_min_free_bytes)
    max_rss_bytes: Optional[int] = field(default_factory=default_max_rss_bytes)
    #: Fault-site key; defaults to ``str(path)``.  Callers with an
    #: identity (queue workers) append it so ``match=`` can target one
    #: worker incarnation.
    key: Optional[str] = None
    checks: int = 0

    def check(self) -> Optional[str]:
        from repro.common.faults import fault_point

        attempt = self.checks
        self.checks += 1
        spec = fault_point("pressure", key=self.key or str(self.path), attempt=attempt)
        if spec is not None and spec.kind == "mem-pressure":
            rss = current_rss_bytes()
            return f"mem-pressure: injected (rss {rss if rss is not None else 'unknown'} bytes)"
        if spec is not None and spec.kind == "enospc":
            free: Optional[int] = 0
        else:
            free = free_disk_bytes(self.path)
        if free is not None and free < self.min_free_bytes:
            return (
                f"enospc: {free} byte(s) free under {self.path} "
                f"(floor {self.min_free_bytes})"
            )
        if self.max_rss_bytes is not None:
            rss = current_rss_bytes()
            if rss is not None and rss > self.max_rss_bytes:
                return f"mem-pressure: rss {rss} bytes over ceiling {self.max_rss_bytes}"
        return None
