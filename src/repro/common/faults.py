"""Deterministic, seedable fault injection for chaos testing.

The resilience layer (:mod:`repro.analysis.resilience`) promises that a
crashing worker, a hung job, or a corrupt cache file degrades a batch
gracefully instead of aborting it.  Promises like that rot unless they are exercised, so this module
lets tests (and brave operators) *inject* exactly those failures at
well-known sites, deterministically.

A fault plan is a semicolon-separated list of specs::

    raise@worker:match=|seed=7|
    hang@worker:match=|seed=12|,attempts=0,seconds=30
    exit@worker:p=0.25
    corrupt-cache@cache

Each spec is ``<kind>@<site>`` plus optional comma-separated options:

``match=<substring>``
    fire only when the substring occurs in the site key (job token,
    cache key, trace name); empty matches everything.
``attempts=<n|n|...>``
    fire only on these 0-based attempt numbers (pipe-separated), so a
    fault can be transient (``attempts=0`` — first try only) or
    persistent (omit — every try).
``p=<float>``
    fire with this probability, decided by a *seeded hash* of
    (seed, site, key, attempt) — reproducible across runs and
    processes, no global RNG state.
``seconds=<float>``
    hang duration for ``hang`` faults.

Kinds and where they fire:

* ``raise`` — raise :class:`FaultInjected` at the site (a worker
  exception on the ``worker`` site).
* ``hang`` — sleep ``seconds`` at the site (a hung worker).
* ``exit`` — hard-kill the process via ``os._exit`` **only when inside
  a pool worker** (the parent sees the worker's pipe close and charges
  the job it was running); outside a worker it degrades to ``raise`` so
  a serial test run cannot kill pytest.
* ``drop`` — returned to the call site, which suppresses the site's
  side effect (e.g. a ``stale-lease`` heartbeat write that never lands
  on the shared filesystem, so the lease goes stale and is stolen).
* ``corrupt-cache`` — returned to the call site, which garbles the
  just-written cache entry (exercises quarantine counters).
* ``corrupt-artifact`` — returned to the call site, which rewrites the
  just-written artifact (result-cache entry, trace ``.npz``, journal
  line) as *structurally valid but wrong* bytes — only the embedded
  sha256 digest can tell (exercises integrity-on-read + quarantine).
* ``invariant-trip`` — returned to the sanitizer's check points, which
  deliberately corrupt live model state and demand the very next
  invariant sweep detect it (chaos-tests the sanitizer itself; see
  :mod:`repro.sanitize`).
* ``enospc`` — returned to the ``pressure`` check points, which treat
  the disk as full (free bytes = 0) so workers drain-and-exit and the
  stores skip writes instead of dying mid-write (exercises the
  resource-pressure guards without actually filling a filesystem).
* ``mem-pressure`` — returned to the ``pressure`` check points, which
  report resident-set pressure regardless of the real RSS (exercises
  the same drain-and-exit path for the memory side).
* ``conn-reset`` — returned to the ``network`` site: the client drops
  its broker connection mid-call (or the broker closes a connection
  without replying), modelling a TCP RST; the retry/replay path must
  reconnect and converge.
* ``stall`` — returned to the ``network`` site: the peer goes silent
  for ``seconds`` (a slow or congested link); per-call timeouts must
  turn the stall into a retry, not a hang.
* ``partial-write`` — returned to the ``network`` site: a frame is
  truncated mid-write before the connection drops, so the reader sees
  a short read; framing must reject the torso and the call must be
  replayed idempotently.
* ``partition`` — returned to the broker side of the ``network`` site:
  the broker refuses/resets every connection for ``seconds``, modelling
  a network partition that heals; clients must ride it out inside their
  retry budget (or exit with the pressure-friendly code past it).

Plans are ambient (``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` environment
variables, which forked pool workers and spawned queue workers inherit)
or explicit (an :class:`FaultInjector` passed to :func:`fault_point`).
With no plan installed, :func:`fault_point` is a near-free no-op.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

FAULTS_ENV = "REPRO_FAULTS"
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

#: Present in every pool worker's environment (set by
#: :func:`repro.analysis.parallel._mark_pool_worker`); ``exit`` faults
#: only hard-kill when they see it.
_POOL_WORKER_ENV = "REPRO_POOL_WORKER"

KINDS = (
    "raise",
    "hang",
    "exit",
    "drop",
    "corrupt-cache",
    "corrupt-artifact",
    "invariant-trip",
    "enospc",
    "mem-pressure",
    "conn-reset",
    "stall",
    "partial-write",
    "partition",
)

#: The auditable fault-site registry: every ``fault_point("<site>")``
#: literal in the tree must appear here with a one-line description of
#: the real-world failure it models, and every registered site must be
#: exercised by at least one test plan (``<kind>@<site>`` under
#: ``tests/``).  Lint rule RL004 enforces both directions, and
#: :func:`parse_faults` rejects plans naming unknown sites so a typo in
#: ``REPRO_FAULTS`` fails loudly instead of injecting nothing.
SITES = {
    "worker": "a sweep job crashing, hanging, or hard-exiting in the executor running it",
    "cache": "a result-cache entry corrupted on disk between write and read",
    "journal": "a run-journal line corrupted between append and --resume replay",
    "sanitizer": "live model state corrupted immediately before an invariant sweep",
    "worker-death": "a queue worker process dying mid-lease (OOM-kill, host loss)",
    "stale-lease": "a queue worker's heartbeat writes never reaching the shared FS",
    "pressure": "the host running out of free disk or resident memory mid-sweep",
    "network": "the TCP link between a queue client and the broker misbehaving "
               "(reset, stall, truncated frame, or a healing partition)",
}


class FaultInjected(RuntimeError):
    """Raised at an injection site by ``raise`` (and serial ``exit``) faults."""


def hash_unit(seed: int, *parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by (seed, parts).

    The same inputs give the same draw in every process on every run —
    seeded chaos is reproducible chaos.  Also used by
    :meth:`~repro.analysis.resilience.RetryPolicy.delay` for jitter.
    """
    blob = "|".join(str(p) for p in parts) + f"|seed={seed}"
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: what, where, and when it fires."""

    kind: str
    site: str
    match: str = ""
    attempts: Optional[frozenset] = None  # 0-based attempt numbers; None = all
    probability: float = 1.0
    seconds: float = 3600.0

    def applies(self, site: str, key: str, attempt: int, seed: int, index: int) -> bool:
        if site != self.site:
            return False
        if self.match and self.match not in key:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.probability >= 1.0:
            return True
        return hash_unit(seed, self.kind, site, key, attempt, index) < self.probability


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a fault-plan string (see the module docstring for the grammar)."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, opts = chunk.partition(":")
        kind, _, site = head.partition("@")
        kind = kind.strip()
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; known: {KINDS}")
        site = site.strip() or "worker"
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; registered sites: {sorted(SITES)}"
            )
        fields = {"kind": kind, "site": site}
        if opts:
            for pair in opts.split(","):
                name, _, value = pair.partition("=")
                name = name.strip()
                if name == "match":
                    fields["match"] = value
                elif name == "attempts":
                    fields["attempts"] = frozenset(int(v) for v in value.split("|"))
                elif name == "p":
                    fields["probability"] = float(value)
                elif name == "seconds":
                    fields["seconds"] = float(value)
                else:
                    raise ValueError(f"unknown fault option {name!r} in {chunk!r}")
        specs.append(FaultSpec(**fields))
    return tuple(specs)


class FaultInjector:
    """A parsed fault plan plus the seed that drives its probabilistic specs."""

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed

    @classmethod
    def from_text(cls, text: Optional[str], seed: int = 0) -> Optional["FaultInjector"]:
        if not text:
            return None
        return cls(parse_faults(text), seed)

    def pick(self, site: str, key: str = "", attempt: int = 0) -> Optional[FaultSpec]:
        for index, spec in enumerate(self.specs):
            if spec.applies(site, key, attempt, self.seed, index):
                return spec
        return None

    def fire(self, site: str, key: str = "", attempt: int = 0) -> Optional[FaultSpec]:
        spec = self.pick(site, key, attempt)
        if spec is None:
            return None
        if spec.kind == "raise":
            raise FaultInjected(f"injected fault at {site} (key={key!r}, attempt={attempt})")
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return spec
        if spec.kind == "exit":
            if os.environ.get(_POOL_WORKER_ENV):
                # Imported lazily: repro.common must not pull the analysis
                # layer in at module load (faults is imported everywhere).
                from repro.analysis.exitcodes import EXIT_CHAOS_DEATH

                os._exit(EXIT_CHAOS_DEATH)  # hard worker death mid-job
            raise FaultInjected(
                f"injected exit outside a pool worker at {site} (key={key!r})"
            )
        return spec  # corrupt-cache / drop / ...: the call site acts


def ambient_fault_args() -> Optional[Tuple[str, int]]:
    """The env-installed plan as plain ``(text, seed)`` data (or ``None``)."""
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    try:
        seed = int(os.environ.get(FAULT_SEED_ENV, "0"))
    except ValueError:
        seed = 0
    return text, seed


def ambient_injector() -> Optional[FaultInjector]:
    args = ambient_fault_args()
    if args is None:
        return None
    return FaultInjector.from_text(*args)


def fault_point(
    site: str,
    key: str = "",
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
) -> Optional[FaultSpec]:
    """An injection site: fires the first matching fault of the active plan.

    ``raise``/``hang``/``exit`` faults act here; every other kind
    (``corrupt-cache``, ``drop``, ...) is *returned* for the call site to
    act on.
    With no plan active this returns ``None`` after one env lookup.
    """
    if injector is None:
        injector = ambient_injector()
        if injector is None:
            return None
    return injector.fire(site, key, attempt)


@contextmanager
def inject_faults(text: str, seed: int = 0) -> Iterator[None]:
    """Install a fault plan in the environment for the duration of the block.

    Env-based so forked pool workers inherit it; tests are the intended
    caller.  Restores (or removes) the previous plan on exit.
    """
    old_text = os.environ.get(FAULTS_ENV)
    old_seed = os.environ.get(FAULT_SEED_ENV)
    os.environ[FAULTS_ENV] = text
    os.environ[FAULT_SEED_ENV] = str(seed)
    try:
        yield
    finally:
        for name, old in ((FAULTS_ENV, old_text), (FAULT_SEED_ENV, old_seed)):
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old
