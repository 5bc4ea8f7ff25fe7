"""Instruction-trace representation and synthetic access-pattern primitives.

The simulator is trace-driven (the paper drove SimpleScalar with Alpha
binaries; we drive our timing model with traces produced by the workload
generators in :mod:`repro.workloads`).  A trace is a columnar, numpy-backed
sequence of instruction records carrying the instruction class, PC, data
address, and branch outcome.
"""

from repro.trace.record import (
    BRANCH,
    FP_OP,
    INT_OP,
    LOAD,
    SW_PREFETCH,
    STORE,
    InstrClass,
    TraceRecord,
)
from repro.trace.store import TraceStore, trace_key
from repro.trace.stream import Trace, TraceBuilder
from repro.trace.synth import (
    gaussian_pointer_chase,
    linked_list_addresses,
    lz_window_addresses,
    stencil_addresses,
    strided_addresses,
    zipf_addresses,
)

__all__ = [
    "BRANCH",
    "FP_OP",
    "INT_OP",
    "LOAD",
    "STORE",
    "SW_PREFETCH",
    "InstrClass",
    "Trace",
    "TraceStore",
    "trace_key",
    "TraceBuilder",
    "TraceRecord",
    "gaussian_pointer_chase",
    "linked_list_addresses",
    "lz_window_addresses",
    "stencil_addresses",
    "strided_addresses",
    "zipf_addresses",
]
