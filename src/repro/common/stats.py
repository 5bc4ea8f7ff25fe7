"""Hierarchical statistics registry.

Every hardware model owns a :class:`StatGroup` under a shared :class:`Stats`
root, and bumps named counters as events happen.  The registry supports

* cheap increments (plain dict arithmetic, no object churn on the hot path),
* nested namespaces (``stats["l1"]["demand_miss"]``),
* snapshot/delta for measuring a window of execution,
* flat export for CSV-style reporting, and the way back (:meth:`Stats.from_flat`),
* deferred flushing: a hardware model may accumulate its hottest event
  counts in plain integer attributes and register a flush hook that folds
  them into the dict lazily — every read path (``get``/``flat``/``total``/
  iteration) triggers the hook first, so readers never observe stale
  values while the per-event cost drops to one integer add.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional


class StatGroup:
    """One namespace of counters, with optional nested child groups."""

    __slots__ = ("name", "counters", "children", "_flush_hook")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, float] = {}
        self.children: Dict[str, "StatGroup"] = {}
        self._flush_hook: Optional[Callable[[], None]] = None

    # -- deferred flushing ----------------------------------------------
    def bind_flush(self, hook: Callable[[], None]) -> None:
        """Register a hook that folds batched local counters into the dict.

        The hook must be idempotent: add its pending deltas to
        ``counters`` and zero them.  It runs before every read.
        """
        self._flush_hook = hook

    def flush(self) -> None:
        """Fold any batched counters in (no-op without a bound hook)."""
        if self._flush_hook is not None:
            self._flush_hook()

    def detach_flush(self) -> None:
        """Flush and unbind the hook (and all descendants' hooks).

        Called when a run finishes so the stats tree becomes plain data —
        picklable across process boundaries, free of references back into
        the hardware models.
        """
        self.flush()
        self._flush_hook = None
        for child in self.children.values():
            child.detach_flush()

    # -- counter access ------------------------------------------------
    def bump(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key`` (creating it at zero)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def set(self, key: str, value: float) -> None:
        self.counters[key] = value

    def get(self, key: str, default: float = 0) -> float:
        if self._flush_hook is not None:
            self._flush_hook()
        return self.counters.get(key, default)

    def __getitem__(self, key: str) -> "StatGroup":
        """Child-group access; creates the child on first use."""
        child = self.children.get(key)
        if child is None:
            child = StatGroup(key)
            self.children[key] = child
        return child

    # -- aggregation ----------------------------------------------------
    def flat(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to ``{"group.sub.counter": value}``."""
        if self._flush_hook is not None:
            self._flush_hook()
        here = f"{prefix}{self.name}." if self.name else prefix
        out = {f"{here}{k}": v for k, v in self.counters.items()}
        for child in self.children.values():
            out.update(child.flat(here))
        return out

    def total(self, key: str) -> float:
        """Sum of ``key`` over this group and all descendants."""
        if self._flush_hook is not None:
            self._flush_hook()
        result = self.counters.get(key, 0)
        for child in self.children.values():
            result += child.total(key)
        return result

    def reset(self) -> None:
        self.flush()
        self.counters.clear()
        for child in self.children.values():
            child.reset()

    def __iter__(self) -> Iterator[str]:
        if self._flush_hook is not None:
            self._flush_hook()
        return iter(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, {len(self.counters)} counters, {len(self.children)} children)"


class Stats(StatGroup):
    """Root of the statistics tree for one simulation run."""

    def __init__(self) -> None:
        super().__init__("")

    @classmethod
    def from_flat(cls, flat: Mapping[str, float]) -> "Stats":
        """Rebuild a tree from :meth:`flat` output, key order included."""
        stats = cls()
        for dotted, value in flat.items():
            *path, key = dotted.split(".")
            group = stats
            for name in path:
                group = group[name]
            group.set(key, value)
        return stats

    def snapshot(self) -> Dict[str, float]:
        return self.flat()

    @staticmethod
    def delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
        """Per-key difference ``after - before`` (missing keys treated as 0)."""
        keys = set(before) | set(after)
        return {k: after.get(k, 0) - before.get(k, 0) for k in keys}

    def to_csv(self) -> str:
        rows = ["counter,value"]
        for key, value in sorted(self.flat().items()):
            rows.append(f"{key},{value}")
        return "\n".join(rows)
