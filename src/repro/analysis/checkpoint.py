"""Crash-consistent run journal: checkpoint/resume for sweeps.

A long sweep that dies at job 437 of 450 should not owe the machine 437
re-simulations.  :class:`RunJournal` is an append-only JSONL file, one
line per finished job, keyed by the job's content hash (the same key
the result cache uses).  ``run_jobs``/``execute_batch`` consult it
before running anything and append to it as each job completes, so a
crashed or Ctrl-C'd sweep resumes by replaying the journal and running
only what is missing — ``repro-sim sweep --resume <run-id>``.

A success line carries the payload's digest; the payload lives in a
result store: the batch's cache, else the journal's own
:attr:`RunJournal.store`.  Resume serves a journaled job only when the
store holds the payload with that digest; an evicted, unwritten or
tampered entry, or a line from before digests, re-runs the job.

Crash-consistency contract:

* **Append-only, one JSON object per line.**  Each append is a single
  ``write`` followed by ``flush``, so when it returns the line is in
  the page cache: any other handle reads it, and a killed process
  loses no line.  A crash mid-write can at worst leave one torn line
  at the *tail* of the file.
* **Group commit.**  :meth:`RunJournal.commit` fsyncs the file once for
  every line appended since the last commit;
  :func:`~repro.analysis.resilience.execute_batch` commits once per
  batch, whether it returns or raises.  An OS crash loses at most the
  lines written since the last commit, and each lost line re-runs on
  resume, exactly as a lost result-store entry does (store entries are
  never fsynced).  A new journal's directory entry is not fsynced
  either.  A commit whose ``fsync`` fails is counted on the journal
  (:attr:`RunJournal.commit_errors`) for the caller to report.
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
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.result_cache import DIGEST_KEY, ResultCache, payload_digest
from repro.analysis.result_cache import result_to_dict  # noqa: F401 - bench/tracing.py wraps it
from repro.common.diskio import default_cache_dir
from repro.common.faults import fault_point

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
        self._committed = 0  # ``appended`` as of the last commit
        #: The error of each commit whose ``fsync`` failed, oldest first.
        self.commit_errors: List[OSError] = []
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

    @cached_property
    def store(self) -> ResultCache:
        """The payload store of a run with no result cache:
        ``<run-id>.results/`` beside the journal."""
        return ResultCache(self.path.with_suffix(".results"))

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
        self.appended += 1

    def commit(self) -> None:
        """Make every line appended since the last commit survive an OS crash.

        One ``fsync`` of the journal, or none when nothing was appended.
        An ``OSError`` is kept in :attr:`commit_errors` for the caller to
        report, not raised: the lines are already written, and any that
        an OS crash takes re-run on resume.
        """
        if self.appended == self._committed:
            return
        # Not retried after an error: a second fsync can report success
        # for pages the kernel already dropped.
        self._committed = self.appended
        try:
            with open(self.path, "a") as fh:
                os.fsync(fh.fileno())
        except OSError as exc:
            self.commit_errors.append(exc)

    def record_success(self, key: str, digest: str) -> None:
        """Journal a success by the digest of its stored payload."""
        self._append({"key": key, "ok": True, "digest": digest})

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

    def completed(self) -> Dict[str, str]:
        """Key -> payload digest for every journaled *success*.

        A success line without a digest (one written before payloads
        moved to the result store) does not count: resume re-runs it.
        """
        return {
            key: record["digest"]
            for key, record in self.load().items()
            if record.get("ok") and isinstance(record.get("digest"), str)
        }

    def resumable(self) -> Dict[str, str]:
        """The :meth:`completed` jobs a resume with no result cache skips:
        those whose :attr:`store` entry carries the journaled digest, the
        rule :func:`~repro.analysis.resilience.execute_batch` applies."""
        return {
            key: digest
            for key, digest in self.completed().items()
            if (hit := self.store.get(key)) is not None and hit[1] == digest
        }

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
