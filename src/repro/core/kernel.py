"""Compiled functional engine — the sweep-scale tier beside the pipeline.

:class:`KernelEngine` replays a trace *functionally*: caches, PIB/RIB
bookkeeping, prefetch generation, pollution filtering and good/bad
classification are all modelled with the same update rules as the
pipeline engine, but no cycle-level timing is simulated.  That trade
buys two orders of magnitude in throughput, which is what wide
parameter sweeps need (the headline figures still come from the
pipeline engine).

How the speed is obtained
-------------------------

* **Batch decomposition.**  Non-memory instructions never enter the hot
  loop at all: a numpy mask selects loads/stores/software prefetches,
  and their line addresses are computed for the whole trace in a
  handful of vectorised operations.  The history-table index is hashed
  in the loop, where the table is consulted: after the duplicate
  squash, and only when a PA/PC filter is on.
* **Flat state, compiled loop.**  The hot loop lives in
  :mod:`repro.core.kernels` as module-level functions over flat
  preallocated numpy arrays (layout below), so a compiler can take it
  whole.
* **Immediate prefetch issue.**  Prefetches that survive the duplicate
  squash and the filter fill the L1 at the point of generation — no
  queue occupancy, port arbitration, MSHR tracking or bus occupancy is
  simulated (their *traffic counters* are still maintained).
* **Deferred statistics.**  Event counts accumulate in flat counter
  arrays; the result is read off them once, at the end of the run,
  through one slot-to-name table (:data:`K_NAMES`).  No hardware-model
  object is built.

Fidelity contract
-----------------

The functional update order per memory access mirrors
:meth:`repro.mem.hierarchy.MemoryHierarchy.demand_access` exactly
(NSP-tag consume, L1 probe, L2 probe counted as a demand read, memory
fetch, fills, eviction feedback into classifier and filter, dirty
writebacks).  The one deliberate semantic difference is **prefetch
issue under zero contention**: every request that survives the
duplicate squash and the pollution filter fills the L1 at its
generation point.  The pipeline instead holds requests in a bounded
queue gated by L1-port idleness and an MSHR demand reserve, so under
port saturation its prefetches issue hundreds of cycles late, overflow
as drops, or die as late-duplicate squashes — an emergent timing
feedback this engine intentionally does not chase.

Two parity regimes follow, and ``tests/test_relaxed_parity.py`` pins
both:

* **Contention-free configs** (ample ports, MSHRs and queue slots,
  unit latencies — :func:`repro.sanitize.differential.relaxed_config`
  builds one): the pipeline's throttles never bind, and classification
  counters match the pipeline engine exactly or to within a few counts
  (residual deltas come only from LRU-stamp ties: cycle timestamps
  there, access sequence numbers here).
* **Paper-default configs**: counters diverge where classification is
  *timeliness*-coupled (``good``/``issued`` under port saturation);
  demand-access counts stay exact and miss counts stay within
  documented bounds.  ``repro-sim bench --engines`` records the
  measured per-counter deltas alongside the speedups, so every sweep
  that trades the pipeline for this tier knows the gap it accepted.

Use the kernel tier to rank filters and sweep table geometries (the
paper's accuracy questions); use the pipeline tier for anything that
quotes IPC, port counts or queue behaviour.  Cycle counts here are a
crude closed-form estimate (dispatch bandwidth plus an MLP-discounted
miss-latency sum) kept only so IPC-shaped code paths do not divide by
zero — **never quote kernel-engine IPC**.

Unsupported configurations (a clear :class:`ValueError` when the engine
is built): the stride prefetcher, the Section 5.5 prefetch buffer, a
no-write-allocate (write-around) L1, any filter other than null/PA/PC,
and a filter object in place of the config's — all of which run on the
pipeline engine.

Execution legs (``cc`` when it builds, ``REPRO_KERNEL_MODE`` overrides):

* ``cc``     — the C port in :mod:`repro.core._ckernel`, compiled once
  with the system C compiler and cached by source hash;
* ``interp`` — the same kernel source as plain Python, always available
  and the readable reference the ``cc`` leg is held to bit-for-bit.

Falling back to ``interp`` degrades gracefully: one process-wide
warning, never a crash, and the chosen leg is recorded in the result
payload (``pipeline.kernel_mode_id`` in ``stats``) so cached results
from different legs are distinguishable — by provenance and timing
only, never by counters.

State layout (allocated per run, all C-contiguous):

* L1: ``tag``/``fid``/``stamp`` int64 + ``dirty``/``pib``/``rib``/
  ``nsp``/``src`` uint8, one slot per way, set-major
  (:func:`repro.mem.geometry.allocate_flat_cache`);
* L2: ``tag``/``stamp`` int64 + ``dirty`` uint8, same layout;
* history table: int64 counters, starting at the config's initial value;
* SDP shadow directory + await set: open-addressed int64 maps sized to
  ``next_pow2(2 * (memory_ops + 16))`` — inserts are bounded by L1
  demand misses, so the load factor stays under one half and probes
  always terminate;
* counters: ``K`` (36 int64 event slots, named by :data:`K_NAMES`) and
  ``T`` (5x7 per-source tally rows, flattened), copied at the warm-up
  boundary; the result reports the whole run's counts in its stats tree
  and the counts after the boundary in its scalars and tallies.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import fields
from typing import Dict, Optional

import numpy as np

from repro.common.config import FilterKind, SimulationConfig
from repro.common.stats import Stats
from repro.core import _ckernel
from repro.core import kernels as krn
from repro.core.classifier import PrefetchTally, check_conservation
from repro.core.simulator import SimulationResult, build_result
from repro.mem.cache import FillSource
from repro.mem.geometry import allocate_flat_cache
from repro.sanitize import Sanitizer, SanitizerViolation, sanitize_enabled
from repro.trace.record import InstrClass
from repro.trace.stream import Trace

MODE_CC = "cc"
MODE_INTERP = "interp"

#: Stable ids recorded in the result payload (``pipeline.kernel_mode_id``);
#: cached payloads carry them, so existing ids never change meaning.
MODE_IDS = {MODE_INTERP: 0, MODE_CC: 1}

#: Environment override: force one leg (``cc`` / ``interp``).
MODE_ENV = "REPRO_KERNEL_MODE"

#: divisor applied to the summed miss latency in the cycle estimate —
#: stands in for the memory-level parallelism the OoO window extracts.
_MLP_DIVISOR = 4

#: The stats key of each ``K`` slot, in slot order: the names the
#: pipeline's hardware models report the same events under.
K_NAMES = (
    "mem.l1.demand_read_hit", "mem.l1.demand_read_miss", "mem.l1.demand_write_hit",
    "mem.l1.demand_write_miss", "mem.l1.prefetched_line_first_use", "mem.l1.evictions",
    "mem.l1.evicted_prefetched_used", "mem.l1.evicted_prefetched_unused",
    "mem.l1.prefetch_fill", "mem.l1.demand_fill",
    "mem.l2.demand_read_hit", "mem.l2.demand_read_miss", "mem.l2.duplicate_fill",
    "mem.l2.evictions", "mem.l2.demand_fill",
    "mem.l1_bus.lines_demand_fill", "mem.l1_bus.lines_prefetch_fill", "mem.l1_bus.lines_writeback",
    "mem.mem_bus.lines_demand_fill", "mem.mem_bus.lines_prefetch_fill",
    "mem.mem_bus.lines_writeback",
    "pipeline.nsp.trigger_miss", "pipeline.nsp.trigger_tag_hit",
    "pipeline.sdp.shadow_issued", "pipeline.sdp.shadow_suppressed", "pipeline.sdp.shadow_learned",
    "pipeline.sdp.confirmed", "pipeline.sw.executed",
    "filter.allowed", "filter.rejected", "filter.feedback_good", "filter.feedback_bad",
    "filter.table.lookup_good", "filter.table.lookup_bad", "filter.table.train_good",
    "filter.table.train_bad",
)
assert len(K_NAMES) == krn.NK

#: Stats groups in the order :class:`~repro.core.simulator.Simulator`
#: builds the pipeline's tree.  The result cache and the journal write
#: payloads unsorted, so this order is part of their bytes.
_GROUP_ORDER = (
    "mem.l1", "mem.l2", "mem.l1_bus", "mem.mem_bus", "filter", "filter.table",
    "classifier", "pipeline", "pipeline.nsp", "pipeline.sdp", "pipeline.sw",
)


def _tallies(T: np.ndarray) -> Dict[FillSource, PrefetchTally]:
    """Per-source tallies of ``T`` (rows 1-4; row 0, demand, stays zero)."""
    rows = T.reshape(5, 7).tolist()
    return {FillSource(src): PrefetchTally(*rows[src]) for src in range(1, 5)}


def _fired(K: np.ndarray, T: np.ndarray) -> Dict[str, int]:
    """The keys the pipeline's flush hooks write for these counts: every
    non-zero ``K`` slot and every non-zero classifier column total."""
    out = {name: v for name, v in zip(K_NAMES, K.tolist()) if v}
    totals = T.reshape(5, 7)[1:].sum(axis=0).tolist()  # T columns are PrefetchTally fields
    out.update((f"classifier.{f.name}", v) for f, v in zip(fields(PrefetchTally), totals) if v)
    return out


_warned: set = set()


def _warn_once(message: str) -> None:
    """The graceful-degradation contract: one warning per process."""
    if message not in _warned:
        _warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def select_mode() -> str:
    """Pick the execution leg: env override first, else ``cc`` when it
    builds.  Warns (once per process) only on a fall back to ``interp``."""
    requested = os.environ.get(MODE_ENV, "").strip().lower()
    if requested and requested not in MODE_IDS:
        raise ValueError(
            f"unknown {MODE_ENV}={requested!r}; choose from cc, interp"
        )
    if requested == MODE_INTERP:
        return MODE_INTERP
    if _ckernel.load() is not None:
        return MODE_CC
    _warn_once(
        f"kernel engine: the cc leg is unavailable "
        f"({_ckernel.LOAD_ERROR or 'not built'}); falling back to 'interp' "
        "(counters are identical across legs, only timing differs)"
    )
    return MODE_INTERP


def _span_fn(mode: str):
    if mode == MODE_CC:
        fn = _ckernel.load()
        if fn is None:
            raise RuntimeError(f"cc leg unavailable: {_ckernel.LOAD_ERROR}")
        return fn
    return krn.kernel_span


def _map_capacity(n_mem: int) -> int:
    """Power-of-two map size with load factor <= 1/2 at the insert bound."""
    need = 2 * (n_mem + 16)
    cap = 1024
    while cap < need:
        cap <<= 1
    return cap


class KernelState:
    """All flat arrays of one kernel run, plus their invariant audit.

    Grouping the arrays in one object gives the sanitizer a single
    ``validate()`` entry point (wired into ``CHECK_WALK``) that applies
    the object-model ``Cache.validate`` rules to the flat state: L1
    frame/tag consistency, RIB => PIB lineage, PIB <=> prefetch fill
    source, per-set tag uniqueness, history-table counter range, and
    the L2 frame/tag sweep.
    """

    __slots__ = (
        "l1_tag", "l1_dirty", "l1_pib", "l1_rib", "l1_nsp", "l1_src",
        "l1_fid", "l1_stamp",
        "l2_tag", "l2_dirty", "l2_stamp",
        "dir_key", "dir_shadow", "dir_conf", "aw_key", "aw_val",
        "tvals", "K", "T", "S", "P",
    )

    def __init__(self, l1cfg, l2cfg, n_mem: int, tvals: np.ndarray) -> None:
        l1 = allocate_flat_cache(
            l1cfg, flags=("dirty", "pib", "rib", "nsp", "src"), extra=("fid",)
        )
        self.l1_tag = l1["tag"]
        self.l1_dirty = l1["dirty"]
        self.l1_pib = l1["pib"]
        self.l1_rib = l1["rib"]
        self.l1_nsp = l1["nsp"]
        self.l1_src = l1["src"]
        self.l1_fid = l1["fid"]
        self.l1_stamp = l1["stamp"]
        l2 = allocate_flat_cache(l2cfg, flags=("dirty",))
        self.l2_tag = l2["tag"]
        self.l2_dirty = l2["dirty"]
        self.l2_stamp = l2["stamp"]
        cap = _map_capacity(n_mem)
        self.dir_key = np.full(cap, krn.MAP_EMPTY, dtype=np.int64)
        self.dir_shadow = np.zeros(cap, dtype=np.int64)
        self.dir_conf = np.zeros(cap, dtype=np.uint8)
        self.aw_key = np.full(cap, krn.MAP_EMPTY, dtype=np.int64)
        self.aw_val = np.zeros(cap, dtype=np.int64)
        self.tvals = tvals
        self.K = np.zeros(krn.NK, dtype=np.int64)
        self.T = np.zeros(krn.NT, dtype=np.int64)
        self.S = np.full(krn.NS, -1, dtype=np.int64)
        self.P = np.zeros(krn.NP_PARAMS, dtype=np.int64)

    def span_args(self, mcls, mpc, mline) -> tuple:
        """The full positional argument tuple of ``kernel_span`` minus
        ``(start, stop)`` — one definition shared by every call site."""
        return (
            mcls, mpc, mline,
            self.l1_tag, self.l1_dirty, self.l1_pib, self.l1_rib,
            self.l1_nsp, self.l1_src, self.l1_fid, self.l1_stamp,
            self.l2_tag, self.l2_dirty, self.l2_stamp,
            self.dir_key, self.dir_shadow, self.dir_conf,
            self.aw_key, self.aw_val,
            self.tvals, self.K, self.T, self.S, self.P,
        )

    def validate(self, pos: int) -> None:
        """Invariant sweep over the flat state (sanitizer entry point)."""
        P = self.P
        W1 = int(P[krn.P_W1])
        l1_mask = int(P[krn.P_L1MASK])
        n1 = len(self.l1_tag)
        valid = self.l1_tag != -1
        sets = np.arange(n1, dtype=np.int64) // W1
        bad = np.nonzero(valid & ((self.l1_tag & l1_mask) != sets))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w} holds line {int(self.l1_tag[w]):#x}, which does not "
                f"map to set {int(sets[w])}: frame/tag desync",
                cycle=pos,
                snapshot={"way": w, "tag": int(self.l1_tag[w]), "set": int(sets[w])},
            )
        bad = np.nonzero(valid & (self.l1_rib != 0) & (self.l1_pib == 0))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w}: RIB set without PIB — referenced bit without "
                "prefetch lineage",
                cycle=pos,
                snapshot={
                    "way": w, "tag": int(self.l1_tag[w]),
                    "pib": int(self.l1_pib[w]), "rib": int(self.l1_rib[w]),
                },
            )
        bad = np.nonzero(valid & ((self.l1_pib != 0) != (self.l1_src != 0)))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w}: PIB={int(self.l1_pib[w])} disagrees with fill "
                f"source {int(self.l1_src[w])}: prefetch lineage lost",
                cycle=pos,
                snapshot={
                    "way": w, "tag": int(self.l1_tag[w]),
                    "pib": int(self.l1_pib[w]), "source": int(self.l1_src[w]),
                },
            )
        if W1 > 1:
            for s in range(n1 // W1):
                b = s * W1
                resident = [int(t) for t in self.l1_tag[b : b + W1] if t != -1]
                if len(resident) != len(set(resident)):
                    raise SanitizerViolation(
                        "kernel.l1",
                        f"duplicate tag in set {s}: the same line is resident "
                        "in two ways",
                        cycle=pos,
                        snapshot={"set": s, "tags": resident},
                    )
        if int(P[krn.P_FMODE]) == krn.FMODE_TABLE and len(self.tvals):
            maxv = int(P[krn.P_MAXV])
            lo = int(self.tvals.min())
            hi = int(self.tvals.max())
            if lo < 0 or hi > maxv:
                value = hi if hi > maxv else lo
                index = int(np.nonzero(self.tvals == value)[0][0])
                raise SanitizerViolation(
                    "kernel.history_table",
                    f"counter {index} holds {value}, outside [0, {maxv}]",
                    cycle=pos,
                    snapshot={"index": index, "value": value, "max": maxv},
                )
        W2 = int(P[krn.P_W2])
        l2_mask = int(P[krn.P_L2MASK])
        n2 = len(self.l2_tag)
        l2_sets = np.arange(n2, dtype=np.int64) // W2
        bad = np.nonzero((self.l2_tag != -1) & ((self.l2_tag & l2_mask) != l2_sets))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l2",
                f"way {w} holds line {int(self.l2_tag[w]):#x}, which does not "
                f"map to set {int(l2_sets[w])}: frame/tag desync",
                cycle=pos,
                snapshot={"way": w, "tag": int(self.l2_tag[w]), "set": int(l2_sets[w])},
            )


class KernelEngine:
    """Classification-accurate compiled engine (no cycle-level timing).

    Built from the config alone; :meth:`run` returns the
    :class:`~repro.core.simulator.SimulationResult` itself.  Raises
    :class:`ValueError` at construction for a configuration the tier
    does not model (see the module docstring).
    """

    #: Leg to run instead of :func:`select_mode`'s choice; the cc-vs-interp
    #: gate pins each leg through it, whatever ``REPRO_KERNEL_MODE`` says.
    mode: Optional[str] = None

    def __init__(self, config: SimulationConfig) -> None:
        if config.prefetch.stride:
            raise ValueError(
                "the kernel engine does not model the stride/extension "
                "prefetcher; run stride configurations on the pipeline engine"
            )
        if config.prefetch_buffer.enabled:
            raise ValueError(
                "the kernel engine does not model the prefetch buffer "
                "(Section 5.5); run buffer configurations on the pipeline engine"
            )
        kind = config.filter.kind
        if kind not in (FilterKind.NONE, FilterKind.PA, FilterKind.PC):
            raise ValueError(
                f"the kernel engine inlines only the null/PA/PC filters, not "
                f"{kind.value!r}; run this filter on the pipeline engine"
            )
        if not config.hierarchy.l1.write_allocate:
            raise ValueError(
                "the kernel engine does not model a no-write-allocate L1 "
                "(write-around); run it on the pipeline engine"
            )
        self.config = config
        #: opt-in invariant checking through ``KernelState.validate``.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(config) if sanitize_enabled(config) else None
        )

    # One long straight-line method on purpose: precompute, state setup,
    # span drive and result assembly read top to bottom in execution order.
    def run(self, trace: Trace) -> SimulationResult:  # noqa: C901 - deliberate hot-loop driver
        cfg = self.config
        n = len(trace)
        limit = cfg.max_instructions
        if limit is not None:
            n = min(n, limit)

        mode = self.mode if self.mode is not None else select_mode()
        span = _span_fn(mode)

        l1cfg = cfg.hierarchy.l1
        l2cfg = cfg.hierarchy.l2
        pf = cfg.prefetch

        # ---- batch precompute (whole-trace numpy passes) ------------------
        iclass = trace.iclass[:n]
        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        SW_PF = int(InstrClass.SW_PREFETCH)
        mask = (iclass == LOAD) | (iclass == STORE)
        if pf.software:
            mask |= iclass == SW_PF
        midx = np.nonzero(mask)[0]
        n_mem = len(midx)
        mcls = np.ascontiguousarray(iclass[mask], dtype=np.int64)
        mpc = trace.pc[:n][mask].astype(np.int64)
        mline = (trace.addr[:n][mask] >> np.uint64(l1cfg.offset_bits)).astype(np.int64)

        fcfg = cfg.filter
        is_table = fcfg.kind in (FilterKind.PA, FilterKind.PC)
        E = fcfg.table_entries
        maxv = (1 << fcfg.counter_bits) - 1 if is_table else 0
        tvals = np.full(E if is_table else 1, fcfg.initial_value if is_table else 0, np.int64)

        # ---- flat state + scalar parameter block -------------------------
        st = KernelState(l1cfg, l2cfg, n_mem, tvals)
        P = st.P
        P[krn.P_W1] = l1cfg.ways
        P[krn.P_L1MASK] = l1cfg.num_sets - 1
        P[krn.P_W2] = l2cfg.ways
        P[krn.P_L2MASK] = l2cfg.num_sets - 1
        P[krn.P_WB] = 1 if l1cfg.writeback else 0
        P[krn.P_NSP] = 1 if pf.nsp else 0
        P[krn.P_SDP] = 1 if pf.sdp else 0
        P[krn.P_DEGREE] = pf.degree
        P[krn.P_FMODE] = krn.FMODE_TABLE if is_table else krn.FMODE_NULL
        P[krn.P_THRESH] = fcfg.threshold if is_table else 0
        P[krn.P_MAXV] = maxv
        # Fold-XOR over the line (PA) or trigger PC (PC): the hash
        # repro.core.simulator.build_filter gives every PA/PC filter.
        P[krn.P_TBITS] = E.bit_length() - 1 if is_table else 0
        P[krn.P_KEYPC] = 1 if fcfg.kind is FilterKind.PC else 0
        P[krn.P_DIRMASK] = len(st.dir_key) - 1
        P[krn.P_AWMASK] = len(st.aw_key) - 1
        P[krn.P_STORE] = STORE
        P[krn.P_SWPF] = SW_PF

        args = st.span_args(mcls, mpc, mline)

        def call(start: int, stop: int) -> None:
            # errstate: the interp leg's uint64 golden-ratio multiplies
            # overflow by design; C wraps silently, numpy warns.
            with np.errstate(over="ignore"):
                status = int(span(*args, start, stop))
            if status != 0:
                raise RuntimeError(
                    f"kernel span aborted with status {status} (SDP map "
                    "overflow — the capacity invariant was violated)"
                )

        K = st.K
        T = st.T

        def estimate(counts: np.ndarray, n_insts: int) -> int:
            misses = int(counts[krn.K_RM]) + int(counts[krn.K_WM])
            fetches = int(counts[krn.K_BMD]) + int(counts[krn.K_BMP])
            stall = misses * l2cfg.latency + fetches * cfg.hierarchy.memory_latency
            return max(1, n_insts // cfg.processor.issue_width + stall // _MLP_DIVISOR)

        # ---- drive the spans (sanitizer sweeps chunk the hot loop) -------
        sanitizer = self.sanitizer

        def drive(start: int, stop: int) -> None:
            if sanitizer is None:
                if stop > start:
                    call(start, stop)
                return
            pos = start
            step = max(1, sanitizer.interval)
            while pos < stop:
                nxt = min(stop, pos + step)
                call(pos, nxt)
                tripped = sanitizer.fire_trip()
                if tripped:
                    # Deliberate RIB-without-PIB corruption in way 0 (tag 0
                    # maps to set 0 in any power-of-two layout); the validate
                    # sweep below must catch it.
                    st.l1_tag[0] = 0
                    st.l1_pib[0] = 0
                    st.l1_rib[0] = 1
                    st.l1_src[0] = 0
                st.validate(nxt)
                if tripped:  # pragma: no cover - reachable only if a check rots
                    raise SanitizerViolation(
                        "kernel.sanitizer",
                        "injected invariant trip went undetected",
                        cycle=nxt,
                    )
                pos = nxt

        # The counters at the warm-up boundary; the result reports the
        # counts accumulated after it.
        warmup = min(cfg.warmup_instructions, n)
        if not 0 < warmup < n:
            warmup = 0
        split = int(np.searchsorted(midx, warmup))
        drive(0, split)
        K0, T0 = K.copy(), T.copy()
        drive(split, n_mem)

        # Final flush: classify still-resident prefetched lines exactly the
        # way Cache.flush does — feedback fires, eviction counters do not.
        fmode = int(P[krn.P_FMODE])
        resident = np.nonzero((st.l1_tag != -1) & (st.l1_pib != 0))[0]
        for w in resident.tolist():
            vrib = int(st.l1_rib[w])
            row = int(st.l1_src[w]) * 7
            if vrib:
                T[row + krn.T_GOOD] += 1
            else:
                T[row + krn.T_BAD] += 1
            krn.feedback(st.tvals, K, vrib, int(st.l1_fid[w]), fmode, maxv)

        # Unconditional: a counter outside [0, max] means the update rule
        # broke, and every count it fed is suspect.
        if int(tvals.min()) < 0 or int(tvals.max()) > maxv:
            raise ValueError(
                f"counter values escape [0, {maxv}]: "
                f"min {int(tvals.min())}, max {int(tvals.max())}"
            )
        if sanitizer is not None:
            st.validate(n_mem)
        check_conservation(_tallies(T))

        # The whole run's stats tree, keyed and ordered the way the
        # pipeline's flush hooks would have written it: the keys that
        # fired before the boundary first, then those that fired after.
        cycles = estimate(K, n)
        flat = {"pipeline.kernel_mode_id": MODE_IDS[mode], "pipeline.instructions": n,
                "pipeline.cycles": cycles, **_fired(K0, T0)}
        flat.update(_fired(K, T))
        in_tree_order = sorted(flat, key=lambda key: _GROUP_ORDER.index(key.rpartition(".")[0]))
        stats = Stats.from_flat({key: flat[key] for key in in_tree_order})

        if warmup:
            cycles = max(1, cycles - estimate(K0, warmup))
        return build_result(
            trace.name, fcfg.kind.value, n - warmup, cycles,
            dict(zip(K_NAMES, (K - K0).tolist())), _tallies(T - T0), stats,
        )
