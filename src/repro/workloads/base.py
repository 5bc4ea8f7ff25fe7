"""Workload framework: the benchmark stand-ins that drive the simulator.

The paper evaluates 10 programs from Olden, SPEC95 and SPEC2000 compiled to
Alpha (Table 2).  We cannot run Alpha binaries, so each benchmark is
replaced by a generator that reproduces its *memory-locality class* —
working-set size relative to the 8 KB L1 / 512 KB L2, pointer vs stride
character, branch predictability, instruction mix — which is what the
pollution filter's behaviour actually depends on.  Each generator is a pure
function of (instruction budget, seed).

``emit_access_block`` is the shared kernel every workload composes: it
turns a pre-planned address sequence into a realistic instruction stream
(loads/stores interleaved with ALU ops and loop branches).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple, Type

import numpy as np

from repro.trace.record import BRANCH, FP_OP, INT_OP, LOAD, RECORD_BYTES, STORE, TRACE_DTYPE
from repro.trace.stream import Trace, TraceBuilder


@dataclass(frozen=True)
class WorkloadInfo:
    """Table 2 row: provenance and the paper's measured miss rates."""

    name: str
    suite: str
    input_set: str
    paper_l1_miss: float
    paper_l2_miss: float
    description: str


class Workload(abc.ABC):
    """A benchmark stand-in producing deterministic traces."""

    info: WorkloadInfo

    @property
    def name(self) -> str:
        return self.info.name

    @abc.abstractmethod
    def _emit(self, builder: TraceBuilder, rng: np.random.Generator, n_insts: int) -> None:
        """Append at least ``n_insts`` records to ``builder``."""

    def init_regions(self) -> List[tuple]:
        """``(label, base, bytes)`` regions the program initialises at start.

        Real programs allocate and write their data structures before
        computing on them, which is what leaves an L2-resident working set
        L2-warm by the time the measured region begins.  Declared here (not
        emitted inside :meth:`_emit`) so :meth:`generate` can skip the init
        phase when the instruction budget is too small to also reach steady
        state — short unit-test traces get the kernels only.
        """
        return []

    def generate(self, n_insts: int = 100_000, seed: int = 0) -> Trace:
        """Build a trace of ~``n_insts`` dynamic instructions.

        The result may slightly exceed ``n_insts`` (generators finish their
        current kernel iteration); it is never shorter.  The data-structure
        init phase (see :meth:`init_regions`) is emitted first when it fits
        within ~45% of the budget; experiments size their warmup window to
        cover it.
        """
        if n_insts < 1:
            raise ValueError("need a positive instruction budget")
        builder = TraceBuilder(name=self.name)
        # zlib.crc32, not hash(): str hashing is salted per process, and the
        # trace must be a pure function of (name, seed) across processes.
        rng = np.random.default_rng(seed ^ zlib.crc32(self.name.encode()))
        regions = self.init_regions()
        init_cost = sum(max(1, nbytes // 32) for _, _, nbytes in regions) * 2.2
        if regions and init_cost <= 0.45 * n_insts:
            for label, base, nbytes in regions:
                emit_init_sweep(builder, rng, label, base, nbytes)
        self._emit(builder, rng, n_insts)
        if len(builder) < n_insts:
            raise AssertionError(f"{self.name} generator under-produced")
        trace = builder.build()
        # A generator finishes its current kernel block, which can overshoot a
        # small budget substantially; cap the excess (cutting a trace mid-block
        # is exactly what interrupting a real program does).
        limit = n_insts + 2048
        return trace.head(limit) if len(trace) > limit else trace


def emit_access_block(
    builder: TraceBuilder,
    rng: np.random.Generator,
    label: str,
    addresses: Iterable[int],
    *,
    store_fraction: float = 0.0,
    ops_per_access: int = 2,
    fp_ops: bool = False,
    branch_every: int = 4,
    branch_taken_rate: float = 0.95,
    n_static_sites: int = 4,
) -> None:
    """Emit one kernel: a loop body walking ``addresses``.

    Per address: a load (or store with probability ``store_fraction``) from
    one of ``n_static_sites`` rotating static PCs, ``ops_per_access`` filler
    ALU ops, and a loop branch every ``branch_every`` accesses whose outcome
    is taken with ``branch_taken_rate`` (0.95 ≈ a predictable loop; lower
    values model data-dependent control flow and feed the mispredict path).

    Local (stack) addresses — those at or above :data:`STACK_BASE`, as
    produced by :func:`mix_local_accesses` — are emitted from their own
    static sites: real code accesses locals through different instructions
    than it accesses data structures, and keeping the pools separate is what
    lets a compiler (and our software-prefetch pass) see the data sites'
    stable strides.

    The block is laid out in a fixed number of array operations: each
    access takes the row of records its site and load/store kind lay down
    (see :func:`_access_sites`), and :func:`_emit_rows` fills in addresses
    and branch outcomes and appends the rows as one chunk.
    """
    if ops_per_access < 0 or branch_every < 0 or n_static_sites < 1:
        raise ValueError(
            "need ops_per_access >= 0, branch_every >= 0 and n_static_sites >= 1, got "
            f"{ops_per_access}, {branch_every} and {n_static_sites}"
        )
    if not isinstance(addresses, np.ndarray):
        addresses = list(addresses)
    addr = np.asarray(addresses, dtype=np.uint64)
    n = len(addr)
    if n == 0:
        return
    store = rng.random(n) < store_fraction
    taken = rng.random(n) < branch_taken_rate
    labels, rows = _access_sites(label, n_static_sites, ops_per_access, fp_ops, branch_every != 0)
    # Each pool rotates over its sites by its own running count: locals over
    # sites 0-1, data accesses over sites 2 .. n_static_sites + 1.
    local = addr >= STACK_BASE
    n_local = np.add.accumulate(local, dtype=np.intp)
    site = np.where(local, (n_local + 1) % 2, 2 + (np.arange(n) - n_local) % n_static_sites)
    _emit_rows(builder, labels, rows[2 * site + store], addr, taken, branch_every)


@lru_cache(maxsize=1024)
def _access_sites(
    label: str, n_static_sites: int, ops_per_access: int, fp_ops: bool, branch: bool
) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Site labels of an access block, and the row each kind of access lays down.

    Sites ``loc0, loc1, d0, ...`` each own ``ops_per_access + 3``
    consecutive site codes: load, store, the filler ops, and the loop
    branch (every site's branch code names the block's one branch).  Row
    ``2 * site + is_store`` holds an access's records: the load or store,
    the filler ops and, when there is a branch, the branch slot, each with
    its class and, in ``pc``, its site code.
    """
    op_class = FP_OP if fp_ops else INT_OP
    labels: List[str] = []
    classes: List[int] = []
    for name in ["loc0", "loc1"] + [f"d{s}" for s in range(n_static_sites)]:
        stem = f"{label}.{name}"
        labels += [f"{stem}.ld", f"{stem}.st"]
        labels += [f"{stem}.op#{j}" for j in range(ops_per_access)] + [f"{label}.br"]
        classes += [LOAD, STORE] + [op_class] * ops_per_access + [BRANCH]
    site, store = np.divmod(np.arange(2 * (n_static_sites + 2)), 2)
    slots = np.arange(1 + ops_per_access + branch)
    slots[1:] += 1  # past the store code
    codes = (site * (ops_per_access + 3))[:, None] + slots
    codes[:, 0] += store
    return tuple(labels), _whole_rows(np.array(classes)[codes], codes)


def _whole_rows(classes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Records with these classes and site codes, one void item per row.

    Picking rows by fancy index then copies each row as plain bytes (see
    :data:`~repro.trace.record.RECORD_BYTES`).
    """
    rows = np.zeros(codes.shape, TRACE_DTYPE)
    rows["iclass"] = classes
    rows["pc"] = codes
    return rows.view((np.void, rows.strides[0]))[:, 0]


def _emit_rows(
    builder: TraceBuilder,
    labels: Tuple[str, ...],
    rows: np.ndarray,
    addr: np.ndarray,
    taken: np.ndarray,
    branch_every: int,
) -> None:
    """Append one row of records per access, in row order, as one block.

    ``rows`` (from :func:`_whole_rows`) comes with each record's class and
    site code (an index into ``labels``) filled in: the memory op, its
    filler ops and, when ``branch_every`` is non-zero, a last branch slot.
    This sets the memory op's address and the branch outcome ``taken``,
    keeps the branch slot only on rows ``i`` where ``i % branch_every ==
    branch_every - 1``, and appends the result.
    """
    records = rows.view(TRACE_DTYPE).reshape(len(rows), -1)
    records["addr"][:, 0] = addr
    if branch_every:
        records["taken"][:, -1] = taken
        if branch_every > 1:
            keep = np.ones(records.shape, dtype=bool)
            keep[:, -1] = False
            keep[branch_every - 1::branch_every, -1] = True
            records = records.view(RECORD_BYTES)[keep].view(TRACE_DTYPE)
    builder.block(records.reshape(-1), labels)


#: Shared "stack" region: always-hot locals, spills, small temporaries.
STACK_BASE = 0x7F80_0000

#: An init-sweep line's records: store, filler op, loop branch (site codes 0-2).
_INIT_ROW = _whole_rows(np.array([[STORE, INT_OP, BRANCH]]), np.array([[0, 1, 2]]))


def emit_init_sweep(
    builder: TraceBuilder,
    rng: np.random.Generator,
    label: str,
    base: int,
    region_bytes: int,
    line_bytes: int = 32,
) -> None:
    """Emit the benchmark's data-structure initialisation phase.

    Real programs allocate and write their data before computing on it, so
    by the time the measured region starts, an L2-resident structure is
    L2-warm.  One store per cache line, in layout order — the cheapest
    faithful model of ``malloc`` + initialise.  Generators call this first;
    the experiment's warmup window is expected to cover it.

    Laid out like an access block: per line a store, one filler op, and a
    loop branch every 8 lines.
    """
    if region_bytes <= 0:
        raise ValueError("region must be positive")
    lines = max(1, region_bytes // line_bytes)
    taken = rng.random(lines) < 0.98
    addr = np.uint64(base) + np.arange(lines, dtype=np.uint64) * np.uint64(line_bytes)
    labels = (f"{label}.init", f"{label}.initop#0", f"{label}.initbr")
    _emit_rows(builder, labels, _INIT_ROW[np.zeros(lines, dtype=np.intp)], addr, taken, 8)


def mix_local_accesses(
    rng: np.random.Generator,
    addresses: np.ndarray | list[int],
    local_fraction: float,
    stack_base: int = STACK_BASE,
    slots: int = 96,
    slot_bytes: int = 8,
) -> np.ndarray:
    """Interleave hot stack/local accesses into a cold address plan.

    Real programs spend most of their references on stack frames, spilled
    registers and small temporaries that stay L1-resident; the interesting
    (cold) data structure accesses are a minority.  This helper inserts
    local-slot accesses so that ``local_fraction`` of the resulting plan is
    hot — the knob each workload uses to land near its Table 2 L1 miss rate.
    The hot set spans ``slots * slot_bytes`` bytes (default 768 B ≈ a couple
    of stack frames), far below any L1 size.
    """
    cold = np.asarray(addresses, dtype=np.uint64)
    if not 0.0 <= local_fraction < 1.0:
        raise ValueError("local_fraction must be in [0, 1)")
    n_cold = len(cold)
    if local_fraction == 0.0 or n_cold == 0:
        return cold
    n_local = int(round(n_cold * local_fraction / (1.0 - local_fraction)))
    if n_local == 0:
        return cold
    local = (stack_base + rng.integers(0, slots, n_local) * slot_bytes).astype(np.uint64)
    total = n_cold + n_local
    out = np.empty(total, dtype=np.uint64)
    cold_positions = (np.arange(n_cold, dtype=np.int64) * total) // n_cold
    is_cold = np.zeros(total, dtype=bool)
    is_cold[cold_positions] = True
    out[is_cold] = cold
    out[~is_cold] = local
    return out


class _Registry:
    def __init__(self) -> None:
        self._classes: Dict[str, Type[Workload]] = {}
        self._order: List[str] = []

    def register(self, cls: Type[Workload]) -> Type[Workload]:
        name = cls.info.name
        if name in self._classes:
            raise ValueError(f"duplicate workload {name!r}")
        self._classes[name] = cls
        self._order.append(name)
        return cls

    def names(self) -> List[str]:
        return list(self._order)

    def create(self, name: str) -> Workload:
        try:
            return self._classes[name]()
        except KeyError:
            raise KeyError(f"unknown workload {name!r}; known: {self._order}") from None

    def infos(self) -> List[WorkloadInfo]:
        return [self._classes[n].info for n in self._order]


REGISTRY = _Registry()
register_workload = REGISTRY.register


def get_workload(name: str) -> Workload:
    return REGISTRY.create(name)


def workload_names() -> List[str]:
    """The 10 benchmarks in the paper's Table 2 order."""
    return REGISTRY.names()
