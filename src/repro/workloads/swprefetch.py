"""Compiler emulation: software-prefetch insertion (``gcc -O4`` stand-in).

The paper compiles with ``-O4``, which makes the Alpha compiler insert
non-blocking prefetch loads for array references whose addresses it can
prove — i.e. affine accesses driven by loop induction variables.  This
pass reproduces that behaviour on a finished trace, using exactly the
information a compiler has:

* per static load PC, watch the address stream; when the stride has repeated
  ``confidence`` consecutive times the access is treated
  as provably affine (a real compiler proves this statically; observing a
  stable stride at the same PC is the trace-level equivalent),
* insert a ``SW_PREFETCH`` record immediately before the load targeting
  ``addr + lookahead_lines`` cache lines down the stream (compilers
  schedule the prefetch one/more iterations ahead inside the loop body),
* emit at most one prefetch per cache line per PC (compilers strength-
  reduce duplicate prefetches to the same line out of unrolled loops).

The pass runs as array passes over the whole trace rather than stepping a
per-PC state machine record by record:

1. stable-sort the loads by PC, so each PC's loads stay in program order;
2. take each load's stride from the previous load at its PC (a PC's first
   load has none);
3. ``stable`` is how many times in a row a non-zero stride has repeated —
   the run length of equal non-zero strides ending at the load, minus one;
4. a load is a candidate when ``stable >= confidence`` and its target
   ``addr ± lookahead_lines * line_bytes`` (in the stride's direction) is
   positive;
5. a candidate emits when its target line differs from that of the
   previous candidate at the same PC (a candidate that does not emit
   already shares the last emitted line, so this is "one prefetch per line
   per PC");
6. inserted prefetches get PCs in first-emission order, one per load PC,
   and go in with one ``np.insert`` per column.

Pointer-chasing loads never develop a stable stride and get nothing —
matching the paper's observation that software prefetches are far fewer
than hardware ones but considerably more accurate.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import _power_of_two
from repro.trace.record import LOAD, SW_PREFETCH
from repro.trace.stream import Trace

#: Synthetic PCs for inserted prefetch instructions live in their own page
#: so they can never collide with generator-assigned PCs.
_SW_PC_BASE = 0x0009_0000_0000


def insert_software_prefetches(
    trace: Trace,
    lookahead_lines: int = 4,
    line_bytes: int = 32,
    confidence: int = 1,
) -> Trace:
    """Return a new trace with compiler-style prefetches inserted.

    ``lookahead_lines`` controls the prefetch distance in cache lines along
    the detected stride direction; ``confidence`` is how many consecutive
    constant-stride executions a PC needs before it earns prefetches.
    """
    if lookahead_lines < 1:
        raise ValueError("lookahead must be at least one line")
    if confidence < 1:
        raise ValueError("confidence must be positive")
    _power_of_two("line_bytes", line_bytes)

    loads = np.flatnonzero(trace.iclass == int(LOAD))
    # Each PC's loads in program order: a stable sort by PC.
    order = loads[np.argsort(trace.pc[loads], kind="stable")]
    pc = trace.pc[order]
    addr = trace.addr[order].astype(np.int64)
    first = np.ones(len(pc), dtype=bool)  # a PC's first load has no stride
    first[1:] = pc[1:] != pc[:-1]
    stride = np.diff(addr, prepend=addr[:1])
    # `stable`: how many times in a row this load's non-zero stride repeated.
    repeat = np.zeros(len(pc), dtype=bool)
    repeat[1:] = ~first[1:] & ~first[:-1] & (stride[1:] == stride[:-1])
    repeat &= stride != 0
    index = np.arange(len(pc))
    stable = index - np.maximum.accumulate(np.where(repeat, 0, index))
    target = addr + np.sign(stride) * (lookahead_lines * line_bytes)
    candidate = np.flatnonzero((stable >= confidence) & (target > 0))
    # A candidate emits unless the previous candidate at its PC targeted
    # the same line.
    line = target[candidate] >> (line_bytes.bit_length() - 1)
    cand_pc = pc[candidate]
    emits = np.ones(len(candidate), dtype=bool)
    emits[1:] = (cand_pc[1:] != cand_pc[:-1]) | (line[1:] != line[:-1])
    emitted = candidate[emits]
    emitted = emitted[np.argsort(order[emitted])]  # back to program order
    # One prefetch PC per load PC, numbered in first-emission order.
    _, first_at, which = np.unique(pc[emitted], return_index=True, return_inverse=True)
    number = np.empty(len(first_at), dtype=np.uint64)
    number[np.argsort(first_at)] = np.arange(len(first_at), dtype=np.uint64)
    at = order[emitted]
    return Trace(
        np.insert(trace.iclass, at, int(SW_PREFETCH)),
        np.insert(trace.pc, at, _SW_PC_BASE + 4 * number[which]),
        np.insert(trace.addr, at, target[emitted].astype(np.uint64)),
        np.insert(trace.taken, at, False),
        trace.name,
    )


def count_inserted(trace: Trace) -> int:
    """Number of software-prefetch records present in a trace."""
    return int((trace.iclass == int(SW_PREFETCH)).sum())
