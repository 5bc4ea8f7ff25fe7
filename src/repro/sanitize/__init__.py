"""Runtime invariant sanitizer: machine-checked model state.

The simulator's whole output rests on a handful of structural invariants
(paper Section 4's PIB/RIB lineage, bounded structures, 2-bit counters):
a silent violation produces plausible-looking but wrong numbers that no
retry or resume machinery can catch.  This package is the opt-in layer
that turns those invariants into *checked assertions*:

* every hardware model grows a ``validate()`` method that audits its own
  state (tag/frame consistency, PIB => prefetched lineage, RIB => PIB,
  occupancy <= capacity, saturating counters in range, age-ordered
  windows);
* the pipeline engine calls :class:`Sanitizer` periodically (every
  ``interval`` instructions) and the simulator calls :meth:`Sanitizer
  .final` once at end of run, which adds the expensive checks (full L2
  audit, stat-flush conservation, cross-counter conservation); the
  kernel engine sweeps its flat state the same way through
  ``KernelState.validate``;
* a failed check raises :class:`SanitizerViolation` carrying the cycle,
  the site, and a state snapshot — enough to reproduce the corruption.

Enabling it (any of):

* ``REPRO_SANITIZE=1`` in the environment (inherited by pool workers),
* ``SimulationConfig(sanitize=True)`` / ``config.with_sanitize()``,
* ``repro-sim <cmd> --sanitize`` on the CLI.

Checks are read-only: a sanitized run produces bit-identical counters
to an unsanitized run of the same config, at a small (<25% at default
interval) time cost.  The checker itself is chaos-tested: the
``invariant-trip`` fault kind (:mod:`repro.common.faults`) deliberately
corrupts model state at a check point and demands the very next sweep
detect it.

The cross-engine differential oracle lives in
:mod:`repro.sanitize.differential`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.common.faults import fault_point

SANITIZE_ENV = "REPRO_SANITIZE"
INTERVAL_ENV = "REPRO_SANITIZE_INTERVAL"

#: Instructions between periodic invariant sweeps (override with
#: ``REPRO_SANITIZE_INTERVAL``).  Chosen so a sweep of the small
#: structures (L1, MSHR, queue, ROB/LSQ, table) amortises to well under
#: 25% of the uninstrumented run time.
DEFAULT_INTERVAL = 4096

#: The sanitizer coverage manifest: every class in the tree that defines
#: a ``validate()`` invariant audit, mapped to the module whose check
#: walk actually invokes it.  A class that grows ``validate()`` without
#: an entry here is a dead invariant — the sanitizer never reaches it —
#: and lint rule RL006 fails the tree until it is wired in (or the
#: entry goes stale because the class lost its audit).
CHECK_WALK = {
    "repro.common.config.SimulationConfig": "repro.cli",
    "repro.common.saturating.SaturatingCounterArray": "repro.filters.history_table",
    "repro.core.kernel.KernelState": "repro.core.kernel",
    "repro.core.rob.RetirementWindow": "repro.sanitize",
    "repro.filters.history_table.HistoryTable": "repro.sanitize",
    "repro.mem.cache.Cache": "repro.mem.hierarchy",
    "repro.mem.hierarchy.MemoryHierarchy": "repro.sanitize",
    "repro.mem.mshr.MSHRFile": "repro.mem.hierarchy",
    "repro.mem.ports.PortArbiter": "repro.mem.hierarchy",
    "repro.prefetch.queue.PrefetchQueue": "repro.sanitize",
    "repro.trace.stream.Trace": "repro.trace.store",
}

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class SanitizerViolation(AssertionError):
    """A model-state invariant failed.

    Carries everything needed to reproduce and triage the violation:
    ``site`` (which structure), ``cycle`` (when), ``message`` (what),
    and ``snapshot`` (a small dict of the offending state).
    """

    def __init__(
        self,
        site: str,
        message: str,
        cycle: Optional[int] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.site = site
        self.message = message
        self.cycle = cycle
        self.snapshot = dict(snapshot or {})
        super().__init__()

    def __str__(self) -> str:
        at = f" at cycle {self.cycle}" if self.cycle is not None else ""
        snap = f" | state: {self.snapshot}" if self.snapshot else ""
        return f"[{self.site}]{at} {self.message}{snap}"

    def __repr__(self) -> str:
        return f"SanitizerViolation({self.site!r}, {self.message!r}, cycle={self.cycle})"


def env_enabled() -> bool:
    """Is the sanitizer forced on through ``REPRO_SANITIZE``?"""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


def sanitize_enabled(config=None) -> bool:
    """Should this run be sanitized?  (config flag OR environment)."""
    if config is not None and getattr(config, "sanitize", False):
        return True
    return env_enabled()


def sanitize_interval() -> int:
    """Periodic-check spacing in instructions (env-tunable, >= 1)."""
    raw = os.environ.get(INTERVAL_ENV, "")
    try:
        value = int(raw) if raw else DEFAULT_INTERVAL
    except ValueError:
        value = DEFAULT_INTERVAL
    return max(1, value)


def check_flush_idempotent(group, site: str) -> None:
    """Stat-group flush conservation: two consecutive reads must agree.

    Every hot-path model batches its event counts in integer attributes
    and folds them into the stats dict through a flush hook that must be
    idempotent (add pending deltas, zero them).  A hook that double-folds
    or forgets to zero makes consecutive reads disagree — exactly what
    this check detects.
    """
    first = group.flat()
    second = group.flat()
    if first != second:
        diff = {
            key: (first.get(key), second.get(key))
            for key in set(first) | set(second)
            if first.get(key) != second.get(key)
        }
        raise SanitizerViolation(
            site,
            "stat flush hook is not idempotent: consecutive reads disagree "
            "(batched counters were folded twice or not zeroed)",
            snapshot=diff,
        )


class Sanitizer:
    """Periodic + end-of-run invariant checker for one simulation run.

    The pipeline engine owns one instance and calls :meth:`periodic`
    every ``interval`` instructions; the simulator calls :meth:`final`
    once after a pipeline run.  The kernel engine builds none of the
    objects these audit: it drives :meth:`fire_trip` and
    :meth:`repro.core.kernel.KernelState.validate` over its flat arrays
    instead — see :meth:`repro.core.kernel.KernelEngine.run`.
    """

    __slots__ = ("interval", "checks")

    def __init__(self, config=None, interval: Optional[int] = None) -> None:
        self.interval = interval if interval is not None else sanitize_interval()
        self.checks = 0

    # ------------------------------------------------------------------
    # Chaos hook
    # ------------------------------------------------------------------
    def fire_trip(self) -> bool:
        """Consult the fault plan: should this check point corrupt state?

        Returns True when an ``invariant-trip`` fault fires; the caller
        then deliberately corrupts its model state *before* running the
        checks, and raises if the corruption goes undetected — the
        sanitizer's own detection logic is what is under test.
        """
        self.checks += 1
        spec = fault_point("sanitizer", key=f"check-{self.checks}")
        return spec is not None and spec.kind == "invariant-trip"

    def _trip_hierarchy(self, engine) -> None:
        """Deliberately violate RIB => PIB lineage in the live L1."""
        from repro.mem.cache import _Line

        l1 = engine.hierarchy.l1
        if not l1.sets[0]:
            # An unfilled set is the shared empty tuple: plant into a list
            # of set 0's own, as a first fill would.
            planted = _Line()
            planted.tag = 0  # maps to set 0 under any power-of-two mask
            l1.sets[0] = [planted]
            l1._occupancy += 1
        line = l1.sets[0][0]
        line.pib = False
        line.rib = True
        line.source = 0

    # ------------------------------------------------------------------
    # Check drivers
    # ------------------------------------------------------------------
    def periodic(self, engine, cycle: int) -> None:
        """The cheap sweep: every bounded structure the hot loop touches."""
        tripped = self.fire_trip()
        if tripped:
            self._trip_hierarchy(engine)
        try:
            self._check_engine(engine, cycle, deep=False)
        except SanitizerViolation as violation:
            if violation.cycle is None:
                violation.cycle = cycle
            raise
        if tripped:  # pragma: no cover - reachable only if a check rots
            raise SanitizerViolation(
                "sanitizer", "injected invariant trip went undetected", cycle
            )

    def final(self, engine, cycle: int) -> None:
        """End-of-run audit: periodic checks plus the expensive ones."""
        try:
            self._check_engine(engine, cycle, deep=True)
        except SanitizerViolation as violation:
            if violation.cycle is None:
                violation.cycle = cycle
            raise

    def _check_engine(self, engine, cycle: int, deep: bool) -> None:
        # The hierarchy audits its own members (L1, MSHR, ports; L2 when
        # deep) — one aggregate entry point keeps the CHECK_WALK honest.
        engine.hierarchy.validate(cycle, deep=deep)
        engine.queue.validate()
        engine.rob.validate("rob")
        engine.lsq.validate("lsq")
        table = getattr(engine.filter, "table", None)
        if table is not None:
            table.validate()
        if deep:
            check_flush_idempotent(engine.hierarchy.stats, "mem.stats")
            check_flush_idempotent(engine.stats, "pipeline.stats")
            self._check_access_conservation(engine)

    def _check_access_conservation(self, engine) -> None:
        """Cross-counter conservation: port grants == L1 demand events.

        Every demand access acquires exactly one port and probes the L1
        exactly once, so two independently-maintained counters must
        agree — except with the prefetch buffer, whose promotion
        re-probes the L1.
        """
        if engine.hierarchy.buffer is not None:
            return
        grants = engine.hierarchy.ports.stats.get("demand_grants")
        l1 = engine.hierarchy.l1.stats
        accesses = (
            l1.get("demand_read_hit")
            + l1.get("demand_read_miss")
            + l1.get("demand_write_hit")
            + l1.get("demand_write_miss")
        )
        if grants != accesses:
            raise SanitizerViolation(
                "mem.conservation",
                f"L1 port demand grants ({int(grants)}) != L1 demand accesses "
                f"({int(accesses)}): batched counters desynced from per-event truth",
                snapshot={"demand_grants": int(grants), "l1_demand_accesses": int(accesses)},
            )
