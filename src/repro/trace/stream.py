"""Columnar trace container and incremental builder.

``Trace`` holds the four instruction columns as parallel numpy arrays —
the representation every engine iterates over.  ``TraceBuilder`` is the
append-only constructor used by workload generators; it also assigns PCs
so that each *static* emission site in a generator gets a stable, distinct
PC (which the PC-based filter and branch predictor rely on).

The builder works in whole blocks.  An emitter lays a block out as one
``TRACE_DTYPE`` array whose ``pc`` field holds *site codes*, indices into
a tuple of site labels, and hands both to :meth:`TraceBuilder.block`.  The
builder maps codes to PCs through one table per label tuple, filled in
first-seen order only when a block brings a code the table has not seen,
so every site gets the PC that record-by-record :meth:`TraceBuilder.site`
calls would have given it.  Scalar records (``load/store/branch/...``)
still work and are gathered into chunks between blocks.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.trace.record import (
    BRANCH,
    LOAD,
    RECORD_BYTES,
    STORE,
    SW_PREFETCH,
    TRACE_DTYPE,
    InstrClass,
    TraceRecord,
)

_PC_BASE = 0x0001_2000_0000
_PC_STEP = 4  # Alpha-style fixed 4-byte instruction encoding

_MAX_ICLASS = max(int(cls) for cls in InstrClass)


def _as_column(values, dtype: np.dtype, column: str) -> np.ndarray:
    """Coerce one trace column to its storage dtype, refusing silent wraps.

    Signed-integer and float inputs can smuggle negatives (or NaN, or
    out-of-range values) into an unsigned view, where they reappear as
    enormous addresses that alias real cache sets.  Those dtypes are
    scanned and rejected with the offending record index; unsigned/bool
    inputs — every internal producer, including the zero-copy views from
    ``head()`` and traces loaded from a ``TraceStore`` — skip the scan
    entirely.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f":
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.nonzero(~finite)[0][0])
            raise ValueError(
                f"trace column {column!r}: non-finite value {arr[i]} at record {i}"
            )
    if kind in "if":
        neg = np.nonzero(arr < 0)[0]
        if len(neg):
            i = int(neg[0])
            raise ValueError(
                f"trace column {column!r}: negative value {arr[i]} at record {i} "
                f"cannot be stored as {np.dtype(dtype).name}"
            )
        limit = np.iinfo(dtype).max
        high = np.nonzero(arr > limit)[0]
        if len(high):
            i = int(high[0])
            raise ValueError(
                f"trace column {column!r}: value {arr[i]} at record {i} "
                f"overflows {np.dtype(dtype).name} (max {limit})"
            )
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of a trace (used by reports and sanity tests)."""

    instructions: int
    loads: int
    stores: int
    branches: int
    sw_prefetches: int
    unique_pcs: int
    unique_lines_32b: int

    @property
    def memory_references(self) -> int:
        return self.loads + self.stores


class Trace:
    """Immutable columnar instruction trace."""

    __slots__ = ("iclass", "pc", "addr", "taken", "name", "__weakref__")

    def __init__(
        self,
        iclass: np.ndarray,
        pc: np.ndarray,
        addr: np.ndarray,
        taken: np.ndarray,
        name: str = "",
    ) -> None:
        n = len(iclass)
        if not (len(pc) == len(addr) == len(taken) == n):
            raise ValueError("trace columns must have equal length")
        self.iclass = _as_column(iclass, np.uint8, "iclass")
        self.pc = _as_column(pc, np.uint64, "pc")
        self.addr = _as_column(addr, np.uint64, "addr")
        self.taken = np.ascontiguousarray(taken, dtype=np.bool_)
        self.name = name

    def __len__(self) -> int:
        return len(self.iclass)

    def __getitem__(self, i: int) -> TraceRecord:
        return TraceRecord(
            InstrClass(int(self.iclass[i])),
            int(self.pc[i]),
            int(self.addr[i]),
            bool(self.taken[i]),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        for i in range(len(self)):
            yield self[i]

    def head(self, n: int) -> "Trace":
        """First ``n`` records as a new trace (cheap numpy views)."""
        return Trace(self.iclass[:n], self.pc[:n], self.addr[:n], self.taken[:n], self.name)

    def validate(self) -> "Trace":
        """Reject semantically malformed records, naming the first offender.

        Dtype coercion in ``__init__`` already blocks negatives and
        overflow; this catches what well-typed columns can still encode:
        instruction classes outside the enum and memory references with
        no data address (which :class:`TraceRecord` forbids scalar-side).
        Returns ``self`` so call sites can chain.
        """
        bad_cls = np.nonzero(self.iclass > _MAX_ICLASS)[0]
        if len(bad_cls):
            i = int(bad_cls[0])
            raise ValueError(
                f"trace {self.name!r}: unknown instruction class {int(self.iclass[i])} "
                f"at record {i} (valid classes are 0..{_MAX_ICLASS})"
            )
        mem_mask = (
            (self.iclass == LOAD.value)
            | (self.iclass == STORE.value)
            | (self.iclass == SW_PREFETCH.value)
        )
        no_addr = np.nonzero(mem_mask & (self.addr == 0))[0]
        if len(no_addr):
            i = int(no_addr[0])
            cls = InstrClass(int(self.iclass[i])).name
            raise ValueError(
                f"trace {self.name!r}: {cls} at record {i} has no data address"
            )
        return self

    # -- aggregate views -------------------------------------------------
    def class_counts(self) -> Dict[InstrClass, int]:
        counts = np.bincount(self.iclass, minlength=6)
        return {cls: int(counts[cls.value]) for cls in InstrClass}

    def summary(self) -> TraceSummary:
        counts = self.class_counts()
        mem_mask = (
            (self.iclass == LOAD.value)
            | (self.iclass == STORE.value)
            | (self.iclass == SW_PREFETCH.value)
        )
        lines = np.unique(self.addr[mem_mask] >> np.uint64(5))
        return TraceSummary(
            instructions=len(self),
            loads=counts[LOAD],
            stores=counts[STORE],
            branches=counts[BRANCH],
            sw_prefetches=counts[SW_PREFETCH],
            unique_pcs=int(len(np.unique(self.pc))),
            unique_lines_32b=int(len(lines)),
        )

    # -- (de)serialisation -------------------------------------------------
    def to_structured(self) -> np.ndarray:
        out = np.empty(len(self), dtype=TRACE_DTYPE)
        out["iclass"] = self.iclass
        out["pc"] = self.pc
        out["addr"] = self.addr
        out["taken"] = self.taken
        return out

    @classmethod
    def from_structured(cls, arr: np.ndarray, name: str = "") -> "Trace":
        # External structured dumps may carry an explicit per-instruction
        # ``id`` column; dynamic ids must be strictly increasing or the
        # engines' program order is meaningless.
        if arr.dtype.names and "id" in arr.dtype.names:
            ids = arr["id"].astype(np.int64)
            stuck = np.nonzero(np.diff(ids) <= 0)[0]
            if len(stuck):
                i = int(stuck[0]) + 1
                raise ValueError(
                    f"trace instruction ids must be strictly increasing: "
                    f"record {i} has id {int(ids[i])} after {int(ids[i - 1])}"
                )
        return cls(arr["iclass"], arr["pc"], arr["addr"], arr["taken"], name)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(
            buf, iclass=self.iclass, pc=self.pc, addr=self.addr, taken=self.taken
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes, name: str = "") -> "Trace":
        with np.load(io.BytesIO(blob)) as data:
            return cls(data["iclass"], data["pc"], data["addr"], data["taken"], name)

    @classmethod
    def concat(cls, traces: Sequence["Trace"], name: str = "") -> "Trace":
        if not traces:
            raise ValueError("cannot concatenate an empty list of traces")
        return cls(
            np.concatenate([t.iclass for t in traces]),
            np.concatenate([t.pc for t in traces]),
            np.concatenate([t.addr for t in traces]),
            np.concatenate([t.taken for t in traces]),
            name or traces[0].name,
        )


class TraceBuilder:
    """Append-only trace constructor with static-PC management.

    Generators call :meth:`site` once per static instruction location to get
    a stable PC, then emit dynamic records against it.  This mirrors how a
    real binary has a fixed PC per instruction while executing it many times.

    Records accumulate as ``TRACE_DTYPE`` chunks: a whole block per
    :meth:`block` call, ``count`` filler ops per :meth:`ops` call, and each
    run of scalar records (:meth:`emit` and the helpers built on it) as one
    chunk.  :meth:`build` concatenates them once.
    """

    def __init__(self, name: str = "", pc_base: int = _PC_BASE) -> None:
        self.name = name
        self._chunks: List[np.ndarray] = []
        self._rows: List[tuple] = []  # scalar records not yet in a chunk
        self._len = 0
        self._sites: Dict[str, int] = {}
        self._next_pc = pc_base
        #: labels tuple -> site code -> PC (-1 until the code is first seen)
        self._tables: Dict[Tuple[str, ...], np.ndarray] = {}
        self._op_chunks: Dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return self._len

    def site(self, label: str) -> int:
        """Stable PC for the static instruction identified by ``label``."""
        pc = self._sites.get(label)
        if pc is None:
            pc = self._next_pc
            self._next_pc += _PC_STEP
            self._sites[label] = pc
        return pc

    # -- emission helpers --------------------------------------------------
    def emit(self, iclass: InstrClass, pc: int, addr: int = 0, taken: bool = False) -> None:
        self._rows.append((int(iclass), pc, addr, taken))
        self._len += 1

    def load(self, label: str, addr: int) -> None:
        self.emit(LOAD, self.site(label), addr)

    def store(self, label: str, addr: int) -> None:
        self.emit(STORE, self.site(label), addr)

    def branch(self, label: str, taken: bool) -> None:
        self.emit(BRANCH, self.site(label), taken=taken)

    def sw_prefetch(self, label: str, addr: int) -> None:
        self.emit(SW_PREFETCH, self.site(label), addr)

    def ops(self, label: str, count: int, fp: bool = False) -> None:
        """``count`` filler ALU ops, each a distinct static site under ``label``."""
        if count < 1:
            return
        key = (label, count, fp)
        chunk = self._op_chunks.get(key)
        if chunk is None:
            chunk = self._op_chunks[key] = np.zeros(count, TRACE_DTYPE)
            chunk["iclass"] = InstrClass.FP_OP if fp else InstrClass.INT_OP
            chunk["pc"] = [self.site(f"{label}#{i}") for i in range(count)]
        self._append(chunk)

    def block(self, records: np.ndarray, labels: Tuple[str, ...]) -> None:
        """Append ``records``, a ``TRACE_DTYPE`` array, as one chunk.

        Each record's ``pc`` field arrives holding a site code, an index
        into ``labels``, and is replaced by the PC of the static site
        ``labels[code]``.  The code-to-PC table is kept per ``labels`` and
        filled through :meth:`site` only when a block holds a code it has
        not seen, in first-seen order, so PCs come out exactly as
        record-by-record :meth:`site` calls would assign them.
        """
        table = self._tables.get(labels)
        if table is None:
            table = self._tables[labels] = np.full(len(labels), -1, dtype=np.int64)
        codes = records["pc"]
        pcs = table[codes]
        if len(pcs) and pcs.min() < 0:
            seen, first = np.unique(codes, return_index=True)
            for code in seen[np.argsort(first)].tolist():
                if table[code] < 0:
                    table[code] = self.site(labels[code])
            pcs = table[codes]
        records["pc"] = pcs
        self._append(records)

    def _append(self, chunk: np.ndarray) -> None:
        if self._rows:
            self._chunks.append(np.array(self._rows, dtype=TRACE_DTYPE))
            self._rows = []
        self._chunks.append(chunk)
        self._len += len(chunk)

    def build(self) -> Trace:
        self._append(np.zeros(0, TRACE_DTYPE))  # seals pending scalar records
        # Concatenated as raw records: numpy would otherwise re-promote the
        # structured dtype once per chunk.
        records = np.concatenate([c.view(RECORD_BYTES) for c in self._chunks])
        records = records.view(TRACE_DTYPE)
        self._chunks = [records]
        return Trace.from_structured(records, self.name)
