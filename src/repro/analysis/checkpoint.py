"""Crash-consistent run journal: checkpoint/resume for sweeps.

A long sweep that dies at job 437 of 450 should not owe the machine 437
re-simulations.  :class:`RunJournal` is an append-only JSONL file, one
line per finished job, keyed by the job's content hash (the same key
the result cache uses).  ``run_jobs``/``execute_batch`` consult it
before running anything and append to it as each job completes, so a
crashed or Ctrl-C'd sweep resumes by replaying the journal and running
only what is missing — ``repro-sim sweep --resume <run-id>``.

Crash-consistency contract:

* **Append-only, one JSON object per line.**  A record is durable once
  its line is written: each append is a single ``write`` followed by
  ``flush`` + ``fsync``, so a crash can at worst leave one torn line at
  the *tail* of the file.
* **Corrupt-tail tolerance.**  :meth:`RunJournal.load` parses line by
  line and discards anything that does not parse or does not look like
  a journal record — a torn tail (or an editor's stray newline) costs
  that one record, never the journal.
* **Last writer wins.**  Replaying keeps the latest record per key, so
  a resumed run that re-executes a previously *failed* job simply
  appends its new outcome; nothing is ever rewritten in place.

Failed jobs are journaled too (``ok=false`` plus the attempt history)
for observability, but only successes count as "done" for resume — a
resume retries every failure.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.result_cache import (
    DIGEST_KEY,
    default_cache_dir,
    payload_digest,
    result_from_dict,
    result_to_dict,
)
from repro.common.faults import fault_point
from repro.core.simulator import SimulationResult

_RECORD_VERSION = 1


def seal_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp a record with the version tag and its own integrity digest.

    The journal's per-line format doubles as the shared-FS work queue's
    per-file format (job files, done records): one JSON object carrying
    a ``sha256`` of its own canonical encoding, the result cache's entry
    digest.  Mutates and returns ``record`` for call-site convenience.
    """
    record["v"] = _RECORD_VERSION
    record[DIGEST_KEY] = payload_digest(record)
    return record


def record_intact(record: Dict[str, Any]) -> bool:
    """Whether a sealed record's digest matches its content.

    Records without a digest predate per-record integrity and are
    accepted as legacy; a *wrong* digest is always quarantined.
    """
    stored = record.get(DIGEST_KEY)
    return stored is None or stored == payload_digest(record)


def runs_dir() -> Path:
    """Where journals live: ``<cache dir>/runs`` (REPRO_CACHE_DIR aware)."""
    return default_cache_dir() / "runs"


def new_run_id() -> str:
    """A fresh, collision-safe run id (printed by the CLI for --resume)."""
    return "run-" + uuid.uuid4().hex[:10]


def journal_path(run_id: str, directory: Optional[os.PathLike | str] = None) -> Path:
    base = Path(directory) if directory is not None else runs_dir()
    return base / f"{run_id}.jsonl"


class RunJournal:
    """Append-only JSONL journal of one run's per-job outcomes."""

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        self.appended = 0
        # Line numbers already quarantined, so repeated ``load()`` calls
        # (resume consults the journal more than once) count each corrupt
        # line exactly once.
        self._quarantined_lines: set[int] = set()

    @property
    def quarantined(self) -> int:
        """Distinct journal lines rejected for a digest mismatch."""
        return len(self._quarantined_lines)

    @classmethod
    def for_run(cls, run_id: str, directory: Optional[os.PathLike | str] = None) -> "RunJournal":
        return cls(journal_path(run_id, directory))

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        seal_record(record)
        spec = fault_point("journal", key=str(record.get("key", "")))
        if spec is not None and spec.kind == "corrupt-artifact":
            # Still valid JSON, still shaped like a record — only the
            # digest check can tell this line has been tampered with.
            record = dict(record, v=_RECORD_VERSION + 1)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self.appended += 1

    def record_success(self, key: str, result: SimulationResult) -> None:
        self._append({"key": key, "ok": True, "result": result_to_dict(result)})

    def record_failure(self, key: str, error: str, attempts: Optional[List[Dict[str, Any]]] = None) -> None:
        self._append({"key": key, "ok": False, "error": error, "attempts": attempts or []})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the journal: latest raw record per key, torn tail tolerated.

        Lines carrying a ``sha256`` field are verified against their own
        content and *quarantined* (skipped and counted, exactly once per
        line) on mismatch — resume then re-runs those jobs rather than
        trusting a tampered outcome.  Lines without the field predate
        per-line digests and are accepted as-is.
        """
        records: Dict[str, Dict[str, Any]] = {}
        try:
            with open(self.path) as fh:
                for lineno, line in enumerate(fh):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn/corrupt line: skip, keep replaying
                    if not isinstance(record, dict) or "key" not in record or "ok" not in record:
                        continue
                    if not record_intact(record):
                        self._quarantined_lines.add(lineno)
                        continue
                    records[record["key"]] = record
        except FileNotFoundError:
            pass
        except OSError:
            pass
        return records

    def completed(self) -> Dict[str, SimulationResult]:
        """Key -> result for every journaled *success* (what resume skips)."""
        done: Dict[str, SimulationResult] = {}
        for key, record in self.load().items():
            if not record.get("ok"):
                continue
            try:
                done[key] = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError):
                continue  # stale/foreign record shape: treat as not done
        return done

    def failed(self) -> Dict[str, Dict[str, Any]]:
        """Key -> raw record for every key whose *latest* record is a failure."""
        return {k: r for k, r in self.load().items() if not r.get("ok")}

    def domains(self) -> Dict[str, int]:
        """Failure-domain histogram over the journal's *latest* records.

        Counts the kind of each failed record's last attempt (falling
        back to ``"exception"``), so a resume banner can say *what* is
        failing — ``{"timeout": 3, "poisoned": 1}`` reads very
        differently from ``{"worker-death": 4}``.  Successes are
        excluded; an empty dict means nothing is currently failing.
        """
        histogram: Dict[str, int] = {}
        for record in self.failed().values():
            attempts = record.get("attempts") or []
            last = attempts[-1] if attempts else {}
            kind = str(last.get("kind", "exception")) if isinstance(last, dict) else "exception"
            histogram[kind] = histogram.get(kind, 0) + 1
        return histogram

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunJournal({str(self.path)!r}, appended={self.appended})"
