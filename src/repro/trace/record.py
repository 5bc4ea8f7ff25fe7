"""Instruction record format.

Five instruction classes are enough to drive the timing model:

* ``INT_OP`` / ``FP_OP`` — non-memory work, occupies issue/ROB slots only,
* ``LOAD`` / ``STORE``   — demand memory references (hit the L1 D cache),
* ``BRANCH``             — conditional branch with a taken/not-taken outcome,
* ``SW_PREFETCH``        — a compiler-inserted prefetch instruction (the
  Alpha ``ldq $r31`` idiom the paper describes): non-blocking, identified in
  the LSQ and routed to the pollution filter.

Records are stored columnar (structure-of-arrays) in :class:`~repro.trace
.stream.Trace`; :class:`TraceRecord` is the scalar view used at module
boundaries and in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class InstrClass(enum.IntEnum):
    INT_OP = 0
    FP_OP = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4
    SW_PREFETCH = 5


# Short aliases: workload generators reference these constantly.
INT_OP = InstrClass.INT_OP
FP_OP = InstrClass.FP_OP
LOAD = InstrClass.LOAD
STORE = InstrClass.STORE
BRANCH = InstrClass.BRANCH
SW_PREFETCH = InstrClass.SW_PREFETCH

MEMORY_CLASSES = frozenset({InstrClass.LOAD, InstrClass.STORE, InstrClass.SW_PREFETCH})

#: Columnar dtype for a trace: one row per dynamic instruction.
TRACE_DTYPE = np.dtype(
    [
        ("iclass", np.uint8),
        ("pc", np.uint64),
        ("addr", np.uint64),
        ("taken", np.bool_),
    ]
)

#: One record's bytes as an opaque item: numpy copies, concatenates and
#: masks these as plain memory, several times faster than the same
#: operations on the structured ``TRACE_DTYPE``.
RECORD_BYTES = np.dtype((np.void, TRACE_DTYPE.itemsize))


@dataclass(frozen=True)
class TraceRecord:
    """Scalar view of one dynamic instruction."""

    iclass: InstrClass
    pc: int
    addr: int = 0
    taken: bool = False

    def __post_init__(self) -> None:
        if self.pc < 0 or self.addr < 0:
            raise ValueError("pc and addr must be non-negative")
        if self.iclass in MEMORY_CLASSES and self.addr == 0:
            raise ValueError(f"{self.iclass.name} record requires a data address")

    @property
    def is_memory(self) -> bool:
        return self.iclass in MEMORY_CLASSES

    @property
    def is_demand(self) -> bool:
        """Demand reference = an access the program actually needs (not a prefetch)."""
        return self.iclass in (InstrClass.LOAD, InstrClass.STORE)
