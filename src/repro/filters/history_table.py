"""The filter's history table (Figure 3, right side).

A single-level, direct-indexed table of 2-bit saturating counters, looked
up and updated "the same as those for branch predictors" (Section 4).  The
index is a hash of either the prefetch line address (PA scheme) or the
trigger PC (PC scheme) — the table itself is agnostic, it just maps a key.

Sizing: the paper's default is 4096 entries = 1 KB of 2-bit counters, and
Section 5.3 sweeps 1024 (256 B) through 16384 (4 KB) entries.
"""

from __future__ import annotations

from repro.common.hashing import table_index
from repro.common.saturating import SaturatingCounterArray
from repro.common.stats import StatGroup


class HistoryTable:
    """Direct-indexed saturating-counter predictor over arbitrary keys."""

    def __init__(
        self,
        entries: int = 4096,
        counter_bits: int = 2,
        initial_value: int = 2,
        threshold: int = 2,
        hash_scheme: str = "fold_xor",
        stats: StatGroup | None = None,
    ) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("history table entries must be a positive power of two")
        self.entries = entries
        self.hash_scheme = hash_scheme
        self.counters = SaturatingCounterArray(entries, counter_bits, initial_value, threshold)
        self._initial = initial_value
        self.stats = stats if stats is not None else StatGroup("history_table")
        self._n_lookup_good = 0
        self._n_lookup_bad = 0
        self._n_train_good = 0
        self._n_train_bad = 0
        self.stats.bind_flush(self._flush_stats)

    def _flush_stats(self) -> None:
        c = self.stats.counters
        for key, attr in (
            ("lookup_good", "_n_lookup_good"),
            ("lookup_bad", "_n_lookup_bad"),
            ("train_good", "_n_train_good"),
            ("train_bad", "_n_train_bad"),
        ):
            pending = getattr(self, attr)
            if pending:
                c[key] = c.get(key, 0) + pending
                setattr(self, attr, 0)

    def index_of(self, key: int) -> int:
        return table_index(key, self.entries, self.hash_scheme)

    def predict_good(self, key: int) -> bool:
        """Lookup: should a prefetch keyed by ``key`` be performed?"""
        good = self.counters.predict(self.index_of(key))
        if good:
            self._n_lookup_good += 1
        else:
            self._n_lookup_bad += 1
        return good

    def train(self, key: int, was_referenced: bool) -> None:
        """Update from eviction feedback (strengthen on use, weaken on waste)."""
        self.counters.update(self.index_of(key), was_referenced)
        if was_referenced:
            self._n_train_good += 1
        else:
            self._n_train_bad += 1

    def reset(self) -> None:
        self.counters.fill(self._initial)

    def validate(self) -> None:
        """Sanitizer audit: all 2-bit counters still within range."""
        self.counters.validate(site="history_table")

    # -- analysis -----------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        bits = self.counters.max_value.bit_length()
        return self.entries * bits // 8

    def fraction_allowing(self) -> float:
        """Fraction of entries currently predicting "good" (table health)."""
        return self.counters.fraction_predicting_true()
