"""Shared-filesystem work queue: lease files, atomic claims, work stealing.

The distributed sweep backend (:mod:`repro.analysis.backend`) needs a
queue that any number of ``repro-sim worker`` processes — on this host
or on NFS peers — can drain with nothing in common but a directory.
:class:`FileQueue` is that queue, built entirely from the two shared-FS
primitives that are actually trustworthy:

* **atomic rename** for every ownership transition (claim and steal):
  ``os.rename`` succeeds for exactly one caller, so two workers racing
  for the same job cannot both win, with zero locks held;
* **atomic replace** for every record write (job files, done records,
  heartbeats), so readers never observe a partial file.

Directory layout under the queue root::

    jobs/<key>.json               submitted, unclaimed job records
    leases/<key>.g<gen>.<owner>.json   claimed: the job file, renamed
    leases/<key>.g<gen>.<owner>.completing   a lease whose owner is publishing
    done/<key>.json               outcome records (ok or failed)
    quarantine/<key>.json         sealed poison-job forensics records
    hb/<owner>.json               per-worker heartbeat counters
    stats/<owner>.json            per-worker drain statistics
    logs/<owner>.log              spawned-worker stdout/stderr

``<key>`` is the job's content hash (the same key the result cache and
run journal use), which is what makes every job *relocatable*: any
worker that claims the file can produce the bit-identical result, and a
duplicate execution (a false steal) converges on the same ``done/``
record.  All records are sealed with the run journal's per-record
sha256 (:func:`repro.analysis.checkpoint.seal_record`); a corrupt file
is quarantined, never trusted.

Lease protocol (the part that is easy to get wrong):

1. **Claim** — rename ``jobs/<key>.json`` to
   ``leases/<key>.g0.<owner>.json``.  The loser of a race gets
   ``FileNotFoundError`` and moves on.
2. **Heartbeat** — while holding any lease, the owner atomically
   replaces ``hb/<owner>.json`` with a strictly increasing *beat
   counter*.  No wall-clock timestamps cross the filesystem.
3. **Steal** — a worker watching another owner's beat counter *not
   change* for ``lease_ttl`` seconds of its **own** monotonic clock
   declares that owner dead and renames the lease to
   ``leases/<key>.g<gen+1>.<thief>.json``.  Renaming is the
   arbitration: one thief wins, the rest get ``FileNotFoundError``.
4. **Complete** — rename the lease to its ``.completing`` name, write
   ``done/<key>.json`` (atomic replace), then unlink the completing
   lease.  The first rename is the one arbitration point between the
   owner and a quarantiner (see *Poison jobs*): whichever rename lands
   first wins the key, so it ends done or quarantined, never both.  An
   owner that loses its lease publishes nothing unless the key is
   already done (then its write is a last-writer-wins replace of the
   same result).  A completing lease counts as outstanding; one whose
   owner stopped beating is retired if the key is done, and otherwise
   stolen like any other lease, since its result never landed.

Clock-skew immunity falls out of step 3: staleness is judged purely by
*local elapsed time since the observed counter last changed*, so hosts
with fast, slow, or backwards clocks — and filesystems with lying
mtimes — cannot cause a false steal or an immortal lease.  A revived
owner whose lease was stolen discovers it harmlessly: its completing
rename finds the file already renamed away, and it overwrites the
``done/`` record only if the thief already published the same
deterministic result.

**Poison jobs.**  Steps 1–4 assume worker deaths are *about the
worker*.  A job that reliably kills its executor (a config that
segfaults a compiled kernel leg, an allocation that draws the OOM
killer) inverts that: every steal hands the grenade to the next
worker, and the lease generation climbs forever while the fleet dies
in rotation.  The generation counter in the lease filename is the
tell — it counts executions that ended in a dead owner.  When a stale
lease's *next* generation would exceed ``poison_threshold``, the
would-be thief (or a supervisor's :meth:`FileQueue.poison_sweep`)
renames the lease into ``quarantine/`` instead of executing it — the
same one-winner arbitration as a steal — and writes a sealed
forensics record: reason, generation, execution count, last owner,
the tail of that owner's log, and the job record itself so the job
can be resubmitted after the underlying fault is fixed
(``submit`` deliberately treats quarantined keys as unknown).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.checkpoint import record_intact, seal_record
from repro.analysis.parallel import SimulationJob, job_from_dict, job_to_dict
from repro.analysis.resilience import job_token
from repro.common.diskio import atomic_write_json

#: Fraction of the lease TTL between heartbeat writes.  Four beats per
#: TTL keeps a live owner comfortably ahead of any thief's staleness
#: timer while costing one small atomic write per interval.
_BEAT_FRACTION = 0.25

#: Highest lease generation still allowed to execute.  Generation ``g``
#: means ``g`` owners already died holding this job, so the default
#: tolerates ``DEFAULT_POISON_THRESHOLD + 1`` executions before the job
#: is declared poison and quarantined.
DEFAULT_POISON_THRESHOLD = 3

POISON_THRESHOLD_ENV = "REPRO_POISON_THRESHOLD"

#: Bytes of the last owner's log captured into the forensics record.
_LOG_TAIL_BYTES = 4096

#: Suffix of a lease whose owner has started publishing its result.
_COMPLETING = ".completing"


def default_poison_threshold() -> int:
    try:
        value = int(os.environ.get(POISON_THRESHOLD_ENV, ""))
    except ValueError:
        return DEFAULT_POISON_THRESHOLD
    return value if value > 0 else DEFAULT_POISON_THRESHOLD


def new_worker_id() -> str:
    """A fresh filename-safe worker identity (also the heartbeat key)."""
    return "w" + uuid.uuid4().hex[:8]


def validate_queue_dir(path: os.PathLike | str, what: str = "--queue-dir") -> Path:
    """Check a queue directory is usable *before* the first claim.

    A bad queue dir used to surface as a ``FileNotFoundError`` deep
    inside the first claim round, long after the sweep was submitted.
    This front-door check turns the three common operator mistakes —
    a typo'd parent, a file where a directory should be, a read-only
    mount — into one actionable :class:`ValueError` naming the flag
    (or env var) that carried the bad value.  Returns the resolved
    path on success; the directory itself need not exist yet (the
    queue creates it), only a writable parent must.
    """
    root = Path(path)
    if root.exists():
        if not root.is_dir():
            raise ValueError(
                f"{what} {str(root)!r} exists but is not a directory"
            )
        if not os.access(root, os.W_OK | os.X_OK):
            raise ValueError(
                f"{what} {str(root)!r} is not writable; "
                "fix permissions or point at a writable directory"
            )
        return root
    parent = root.parent
    if not parent.is_dir():
        raise ValueError(
            f"{what} {str(root)!r} cannot be created: parent directory "
            f"{str(parent)!r} does not exist (typo in the path?)"
        )
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(
            f"{what} {str(root)!r} cannot be created: parent directory "
            f"{str(parent)!r} is not writable"
        )
    return root


@dataclass(frozen=True)
class Claim:
    """One leased job: what to run and which lease file proves ownership."""

    key: str
    job: SimulationJob
    token: str
    path: Path
    generation: int
    stolen: bool = False


def _load_json(path: Path) -> Optional[Dict]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


class FileQueue:
    """One sweep's job queue rooted at a shared directory.

    Construct one instance per process; staleness observations (see the
    module docstring) are per-instance local state by design.  Every
    method is safe to call concurrently from any number of processes on
    the same root.
    """

    def __init__(
        self,
        root: os.PathLike | str,
        lease_ttl: float = 30.0,
        poison_threshold: Optional[int] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive (got {lease_ttl})")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.poison_threshold = (
            poison_threshold if poison_threshold is not None else default_poison_threshold()
        )
        if self.poison_threshold <= 0:
            raise ValueError(
                f"poison_threshold must be positive (got {self.poison_threshold})"
            )
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.quarantine_dir = self.root / "quarantine"
        self.hb_dir = self.root / "hb"
        self.stats_dir = self.root / "stats"
        self.logs_dir = self.root / "logs"
        for directory in (
            self.jobs_dir, self.leases_dir, self.done_dir,
            self.quarantine_dir, self.hb_dir, self.stats_dir, self.logs_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        #: Done/job records rejected for a digest mismatch (read-side count).
        self.quarantined = 0
        #: Poison jobs this instance moved into ``quarantine/``.
        self.poisoned = 0
        #: owner -> (last observed beat payload, local monotonic time it
        #: was first observed).  The only state stealing depends on.
        self._observed: Dict[str, Tuple[Optional[int], float]] = {}
        self._beats = 0
        self._last_beat = 0.0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, jobs: Sequence[SimulationJob]) -> int:
        """Enqueue every job not already known; returns how many were new.

        A key with a job file, a live lease, or a done record is skipped,
        so resubmitting a sweep into an existing queue directory is the
        resume path: only the missing work is added.
        """
        known = self.known_keys()
        added = 0
        for job in jobs:
            key = job.key()
            if key in known:
                continue
            record = seal_record({
                "key": key,
                "token": job_token(job),
                "job": job_to_dict(job),
            })
            atomic_write_json(self.jobs_dir / f"{key}.json", record)
            known.add(key)
            added += 1
        return added

    def known_keys(self) -> Set[str]:
        keys = {p.stem for p in self.jobs_dir.glob("*.json")}
        keys |= {key for key, _, _, _ in self.leases() + self._completing()}
        keys |= {p.stem for p in self.done_dir.glob("*.json")}
        return keys

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def heartbeat(self, worker: str, force: bool = False) -> bool:
        """Publish a fresh beat for ``worker`` (rate-limited to TTL/4).

        The ``stale-lease`` fault site models a worker whose heartbeat
        writes never reach the shared filesystem: a ``drop`` spec
        suppresses the write, so the worker looks dead to its peers
        while still running — exactly the condition work stealing must
        survive.  Returns whether a beat actually landed.
        """
        from repro.common.faults import fault_point

        now = time.monotonic()
        if not force and now - self._last_beat < self.lease_ttl * _BEAT_FRACTION:
            return False
        spec = fault_point("stale-lease", key=worker, attempt=self._beats)
        if spec is not None and spec.kind == "drop":
            return False
        self._beats += 1
        self._last_beat = now
        try:
            atomic_write_json(self.hb_dir / f"{worker}.json", {"worker": worker, "beats": self._beats})
        except OSError:
            return False
        return True

    def _read_beats(self, owner: str) -> Optional[int]:
        data = _load_json(self.hb_dir / f"{owner}.json")
        if data is None:
            return None
        beats = data.get("beats")
        return beats if isinstance(beats, int) else None

    def _owner_is_stale(self, owner: str) -> bool:
        """Skew-immune staleness: has this owner's beat counter been
        unchanged for ``lease_ttl`` seconds of *our* monotonic clock?"""
        beats = self._read_beats(owner)
        now = time.monotonic()
        seen = self._observed.get(owner)
        if seen is None or seen[0] != beats:
            self._observed[owner] = (beats, now)
            return False
        return now - seen[1] >= self.lease_ttl

    # ------------------------------------------------------------------
    # Claiming and stealing
    # ------------------------------------------------------------------
    def _open_claim(self, path: Path, key: str, generation: int, stolen: bool) -> Optional[Claim]:
        record = _load_json(path)
        job = None
        if record is not None and record_intact(record) and "job" in record:
            try:
                job = job_from_dict(record["job"])
            except (KeyError, TypeError, ValueError):
                pass
        if job is None:
            # A corrupt job file cannot be run; retire it loudly in the
            # counters rather than crashing the drain loop.
            self.quarantined += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        token = record.get("token") or job_token(job)
        return Claim(key=key, job=job, token=token, path=path, generation=generation, stolen=stolen)

    def claim(self, worker: str, limit: int = 1) -> List[Claim]:
        """Atomically claim up to ``limit`` unclaimed jobs for ``worker``."""
        claims: List[Claim] = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            if len(claims) >= limit:
                break
            key = path.stem
            if self.is_done(key):
                # Finished under a previous lease; retire the duplicate.
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            target = self.leases_dir / f"{key}.g0.{worker}.json"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this rename
            except OSError:
                continue
            claim = self._open_claim(target, key, generation=0, stolen=False)
            if claim is not None:
                claims.append(claim)
        return claims

    @staticmethod
    def _parse_lease(path: Path) -> Optional[Tuple[str, int, str]]:
        """(key, generation, owner) from a ``<key>.g<gen>.<owner>.<suffix>`` name."""
        parts = path.stem.split(".")
        if len(parts) != 3 or not parts[1].startswith("g"):
            return None
        try:
            generation = int(parts[1][1:])
        except ValueError:
            return None
        return parts[0], generation, parts[2]

    def _scan(self, directory: Path, pattern: str) -> List[Tuple[str, int, str, Path]]:
        out = []
        for path in sorted(directory.glob(pattern)):
            parsed = self._parse_lease(path)
            if parsed is not None:
                out.append((*parsed, path))
        return out

    def leases(self) -> List[Tuple[str, int, str, Path]]:
        """Every live lease as (key, generation, owner, path)."""
        return self._scan(self.leases_dir, "*.json")

    def _completing(self) -> List[Tuple[str, int, str, Path]]:
        """Every lease whose owner is publishing (or died publishing)."""
        return self._scan(self.leases_dir, "*" + _COMPLETING)

    def steal(self, worker: str, limit: int = 1) -> List[Claim]:
        """Take over up to ``limit`` leases whose owners stopped beating.

        Observation-only on the first sighting of any owner: a lease is
        stealable only after this instance has watched the owner's beat
        counter stay frozen for a full TTL on its own clock.  A
        completing lease left by a dead owner is retired if its key is
        done and stolen otherwise; it is never quarantined, because its
        last execution finished.
        """
        claims: List[Claim] = []
        for key, generation, owner, path in self.leases() + self._completing():
            if len(claims) >= limit:
                break
            if owner == worker:
                continue
            if self.is_done(key):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            if not self._owner_is_stale(owner):
                continue
            if generation + 1 > self.poison_threshold and path.suffix != _COMPLETING:
                # Executing this lease would be death number gen+2 for
                # the fleet; quarantine it instead of riding the steal
                # loop forever.
                self._quarantine_poison(key, generation, owner, path)
                continue
            target = self.leases_dir / f"{key}.g{generation + 1}.{worker}.json"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another thief won, or the owner completed
            except OSError:
                continue
            claim = self._open_claim(target, key, generation=generation + 1, stolen=True)
            if claim is not None:
                claims.append(claim)
        return claims

    # ------------------------------------------------------------------
    # Poison-job quarantine
    # ------------------------------------------------------------------
    def _log_tail(self, owner: str) -> str:
        """The last worker's final log bytes — the closest thing a dead
        subprocess leaves to a stack trace."""
        path = self.logs_dir / f"{owner}.log"
        try:
            with open(path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - _LOG_TAIL_BYTES))
                return fh.read().decode("utf-8", errors="replace")
        except OSError:
            return ""

    def _quarantine_poison(self, key: str, generation: int, owner: str, path: Path) -> bool:
        """Move one lease into quarantine; the rename picks one winner.

        Returns whether *this* caller performed the quarantine.
        """
        # The captured name keeps the lease's key/generation/owner so a
        # crash between this rename and the record write below loses no
        # information: the recovery pass in ``poison_sweep`` finishes
        # the record from the filename alone.
        captured = self.quarantine_dir / f"{key}.g{generation}.{owner}.lease"
        try:
            os.rename(path, captured)
        except OSError:
            return False  # another thief/supervisor, or the completing owner, got there first
        self._seal_poison_record(key, generation, owner, captured)
        return True

    def _seal_poison_record(self, key: str, generation: int, owner: str,
                            captured: Path, note: str = "") -> None:
        """Write the sealed forensics record for a captured lease, then
        drop the capture.  ``note`` extends the reason (recovery)."""
        lease = _load_json(captured) or {}
        record = seal_record({
            "key": key,
            "reason": (
                f"poison job: {generation + 1} execution(s) each ended with a dead "
                f"worker (lease generation {generation}, threshold "
                f"{self.poison_threshold}{note})"
            ),
            "generation": generation,
            "executions": generation + 1,
            "last_owner": owner,
            "last_worker_log_tail": self._log_tail(owner),
            "token": lease.get("token", ""),
            "job": lease.get("job"),
        })
        atomic_write_json(self.quarantine_dir / f"{key}.json", record)
        try:
            captured.unlink(missing_ok=True)
        except OSError:
            pass
        self.poisoned += 1

    def poison_sweep(self) -> int:
        """Quarantine every stale lease past the poison threshold.

        The supervisor's half of poison detection: it never executes
        jobs itself, so without this only a *worker* surviving long
        enough to attempt a steal could retire a poison job.  Uses the
        same per-instance staleness observations as :meth:`steal`.
        """
        swept = 0
        # Recovery: a captured lease without its forensics record means
        # a quarantiner died mid-quarantine; finish its paperwork.
        for key, generation, owner, stranded in self._scan(self.quarantine_dir, "*.lease"):
            if (self.quarantine_dir / f"{key}.json").exists():
                try:
                    stranded.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            self._seal_poison_record(
                key, generation, owner, stranded,
                note="; record recovered after a quarantiner died mid-quarantine",
            )
            swept += 1
        for key, generation, owner, path in self.leases():
            if generation + 1 <= self.poison_threshold:
                continue
            if self.is_done(key):
                continue  # retired by claim/steal paths on sight
            if not self._owner_is_stale(owner):
                continue
            if self._quarantine_poison(key, generation, owner, path):
                swept += 1
        return swept

    def quarantine_record(self, key: str) -> Optional[Dict]:
        """The sealed quarantine record for ``key`` (``None`` if absent
        or failing its digest — a corrupt forensics record is worthless)."""
        record = _load_json(self.quarantine_dir / f"{key}.json")
        if record is None or not record_intact(record):
            return None
        return record

    def collect_quarantined(self) -> Dict[str, Dict]:
        """Every intact quarantine record, keyed by job key."""
        out = {}
        for path in sorted(self.quarantine_dir.glob("*.json")):
            record = self.quarantine_record(path.stem)
            if record is not None:
                out[path.stem] = record
        return out

    def release(self, claim: Claim) -> None:
        """Return a claimed job to the unclaimed pool (graceful shutdown)."""
        try:
            os.rename(claim.path, self.jobs_dir / f"{claim.key}.json")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(self, claim: Claim, record: Dict) -> None:
        """Publish the outcome record for a claim and retire its lease.

        Renaming the lease to its completing name first is the single
        arbitration point against a quarantiner's capture rename: only
        one of the two can move the lease, so the key never ends both
        done and quarantined.  An owner whose lease is gone (stolen,
        quarantined, or already completed) publishes only over an
        existing done record, keeping last-writer-wins for duplicate
        executions.  The ``done/`` write still lands before the unlink,
        so a crash between the two strands only a completing lease
        pointing at finished work, which :meth:`steal` retires.
        """
        record = dict(record)
        record["key"] = claim.key
        record["generation"] = claim.generation
        seal_record(record)
        done = self.done_dir / f"{claim.key}.json"
        completing = claim.path.with_suffix(_COMPLETING)
        try:
            os.rename(claim.path, completing)
        except OSError:
            if self.is_done(claim.key):
                atomic_write_json(done, record)
            return
        try:
            atomic_write_json(done, record)
        except OSError:
            # Nothing was published: hand the lease back, so the job
            # stays stealable and its poison accounting intact.
            os.rename(completing, claim.path)
            raise
        try:
            completing.unlink(missing_ok=True)
        except OSError:
            pass

    def is_done(self, key: str) -> bool:
        return (self.done_dir / f"{key}.json").exists()

    def done_record(self, key: str) -> Optional[Dict]:
        """The sealed outcome for ``key``, or ``None`` (missing/corrupt).

        A record failing its digest is quarantined (counted and removed)
        so the job becomes claimable again instead of being trusted.
        """
        path = self.done_dir / f"{key}.json"
        record = _load_json(path)
        if record is None:
            return None
        if not record_intact(record) or "ok" not in record:
            self.quarantined += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        return record

    def collect_new(self, seen: Set[str]) -> Iterable[Tuple[str, Dict]]:
        """Yield (key, record) for done records not in ``seen`` (updated)."""
        for path in sorted(self.done_dir.glob("*.json")):
            key = path.stem
            if key in seen:
                continue
            record = self.done_record(key)
            if record is None:
                continue
            seen.add(key)
            yield key, record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self) -> Tuple[int, int]:
        """(unclaimed job files, live leases) — (0, 0) means fully drained.

        A completing lease counts as live until its done record landed
        and it was unlinked, so no drain stops with a job mid-publish.
        """
        return (
            sum(1 for _ in self.jobs_dir.glob("*.json")),
            sum(1 for _ in self.leases_dir.glob("*.json"))
            + sum(1 for _ in self.leases_dir.glob("*" + _COMPLETING)),
        )

    def counts(self) -> Dict[str, int]:
        jobs, leases = self.outstanding()
        return {
            "jobs": jobs,
            "leases": leases,
            "done": sum(1 for _ in self.done_dir.glob("*.json")),
            "quarantined": self.quarantined,
            # From the directory, not the instance counter: every
            # process sees the same poison verdicts.
            "poisoned": sum(1 for _ in self.quarantine_dir.glob("*.json")),
        }

    def write_stats(self, worker: str, stats: Dict) -> None:
        """Publish a worker's drain statistics (read by ``bench --sweep``)."""
        try:
            atomic_write_json(self.stats_dir / f"{worker}.json", stats)
        except OSError:
            pass

    def read_stats(self) -> List[Dict]:
        out = []
        for path in sorted(self.stats_dir.glob("*.json")):
            data = _load_json(path)
            if data is not None:
                out.append(data)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counts()
        return (
            f"FileQueue({str(self.root)!r}, jobs={c['jobs']}, "
            f"leases={c['leases']}, done={c['done']})"
        )
