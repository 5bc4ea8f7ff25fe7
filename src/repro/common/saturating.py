"""Arrays of n-bit saturating counters.

The paper's history table and the bimodal branch predictor are both arrays
of 2-bit saturating counters with branch-predictor update semantics:
increment on a positive outcome, decrement on a negative one, clamping at
the ends.  The array is numpy-backed so snapshots and bulk statistics are
cheap, while single-entry update stays a couple of integer operations.
"""

from __future__ import annotations

import numpy as np


class SaturatingCounterArray:
    """``n`` independent saturating counters of ``bits`` bits each."""

    __slots__ = ("values", "max_value", "threshold")

    def __init__(self, entries: int, bits: int = 2, initial: int = 2, threshold: int = 2) -> None:
        if entries < 1:
            raise ValueError("need at least one counter")
        if not 1 <= bits <= 8:
            raise ValueError("bits must be in [1, 8]")
        self.max_value = (1 << bits) - 1
        if not 0 <= initial <= self.max_value:
            raise ValueError("initial value out of range")
        if not 0 < threshold <= self.max_value:
            raise ValueError("threshold out of range")
        self.threshold = threshold
        self.values = np.full(entries, initial, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.values)

    def strengthen(self, index: int) -> None:
        """Saturating increment (outcome confirmed the predicted direction)."""
        v = self.values[index]
        if v < self.max_value:
            self.values[index] = v + 1

    def weaken(self, index: int) -> None:
        """Saturating decrement."""
        v = self.values[index]
        if v > 0:
            self.values[index] = v - 1

    def update(self, index: int, positive: bool) -> None:
        if positive:
            self.strengthen(index)
        else:
            self.weaken(index)

    def predict(self, index: int) -> bool:
        """True when the counter is at or above the decision threshold."""
        return bool(self.values[index] >= self.threshold)

    def value(self, index: int) -> int:
        return int(self.values[index])

    def fill(self, value: int) -> None:
        if not 0 <= value <= self.max_value:
            raise ValueError("value out of range")
        self.values.fill(value)

    def validate(self, site: str = "counters") -> None:
        """Sanitizer audit: every counter within [0, max_value].

        Vectorised (one numpy comparison over the whole array) so the
        periodic sweep can afford it at any table size; names the first
        escaping index for reproduction.
        """
        from repro.sanitize import SanitizerViolation

        bad = np.nonzero(self.values > self.max_value)[0]
        if len(bad):
            index = int(bad[0])
            raise SanitizerViolation(
                site,
                f"counter {index} holds {int(self.values[index])}, outside "
                f"[0, {self.max_value}] ({len(bad)} counter(s) escaped)",
                snapshot={"index": index, "value": int(self.values[index]), "max": self.max_value},
            )

    # -- analysis helpers ------------------------------------------------
    def fraction_predicting_true(self) -> float:
        return float(np.mean(self.values >= self.threshold))

    def histogram(self) -> np.ndarray:
        """Counter-value histogram, length ``max_value + 1``."""
        return np.bincount(self.values, minlength=self.max_value + 1)
