"""Timestamp-ordered out-of-order execution engine.

One pass over the trace, in program order, computing per-instruction
dispatch / completion / retirement timestamps.  The model captures every
mechanism the paper's evaluation depends on:

* **Limited OoO window** — dispatch of instruction *i* waits for the
  retirement of instruction *i − ROB* (and *i − LSQ* for memory ops), so a
  long-latency load eventually stalls the front end: misses overlap only
  within the window (bounded MLP).
* **Issue/retire width** — at most ``issue_width`` dispatches and
  ``retire_width`` retirements per cycle.
* **L1 port contention** — every demand access acquires a port through the
  arbiter; queued prefetches only issue into idle ports (demand priority),
  so port pressure delays prefetches (Section 5.4's effect).
* **Branch flushes** — bimodal+BTB mispredictions stall dispatch for the
  flush penalty.
* **Cache/memory latencies, MSHR merging, bus occupancy** — from
  :class:`~repro.mem.hierarchy.MemoryHierarchy`.
* **Non-blocking stores and software prefetches** — they occupy slots and
  ports but retirement does not wait for their data.

The engine also runs the complete prefetch control path per Figure 3:
demand access → hardware prefetcher triggers → duplicate squash →
pollution-filter lookup → prefetch queue → port grab → L1 fill, with
eviction feedback flowing back into the filter and the classifier.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SimulationConfig
from repro.common.stats import StatGroup
from repro.core.branch import BranchUnit
from repro.core.classifier import PrefetchClassifier
from repro.core.lsq import LoadStoreQueue
from repro.core.rob import ReorderBuffer
from repro.mem.hierarchy import MemoryHierarchy
from repro.prefetch.base import HardwarePrefetcher, PrefetchRequest
from repro.prefetch.nsp import NextSequencePrefetcher
from repro.prefetch.queue import PrefetchQueue
from repro.prefetch.sdp import ShadowDirectoryPrefetcher
from repro.prefetch.software import SoftwarePrefetchUnit
from repro.prefetch.stride import StridePrefetcher
from repro.sanitize import Sanitizer, sanitize_enabled
from repro.trace.record import InstrClass
from repro.trace.stream import Trace

_FP_LATENCY = 3
_INT_LATENCY = 1
_AGEN_LATENCY = 1  # address generation before a memory op reaches the cache
_DRAIN_BURST = 4  # max prefetch issues per drain call (per-instruction rate cap)
_MSHR_DEMAND_RESERVE = 4  # MSHR entries a prefetch must leave free for demand


class OoOPipeline:
    """The cycle-accounting engine; one instance per simulation run."""

    def __init__(
        self,
        config: SimulationConfig,
        hierarchy: MemoryHierarchy,
        filter_,
        classifier: PrefetchClassifier,
        stats: StatGroup | None = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.filter = filter_
        self.classifier = classifier
        self.stats = stats if stats is not None else StatGroup("pipeline")

        p = config.processor
        self.branch_unit = BranchUnit(
            p.branch_predictor_entries, p.btb_sets, p.btb_ways, self.stats["branch"]
        )
        self.rob = ReorderBuffer(p.rob_entries)
        self.lsq = LoadStoreQueue(p.lsq_entries)
        self.queue = PrefetchQueue(config.prefetch.queue_entries, self.stats["queue"])

        pf = config.prefetch
        line_bytes = config.hierarchy.l1.line_bytes
        self.nsp: Optional[NextSequencePrefetcher] = (
            NextSequencePrefetcher(pf.degree, self.stats["nsp"]) if pf.nsp else None
        )
        self.sdp: Optional[ShadowDirectoryPrefetcher] = (
            ShadowDirectoryPrefetcher(self.stats["sdp"]) if pf.sdp else None
        )
        self.stride: Optional[StridePrefetcher] = (
            StridePrefetcher(pf.stride_table_entries, line_bytes, pf.degree, self.stats["stride"])
            if pf.stride
            else None
        )
        self.sw_unit: Optional[SoftwarePrefetchUnit] = (
            SoftwarePrefetchUnit(line_bytes, self.stats["sw"]) if pf.software else None
        )
        #: The extension slot accepts any HardwarePrefetcher; stride-style
        #: units train on byte addresses (observe_address), others on the
        #: resolved access (observe).  Resolved once here, off the hot path.
        self._stride_wants_address = hasattr(self.stride, "observe_address")

        #: with NSP enabled, every prefetched line is tagged (tagged
        #: sequential prefetching: the tag bit marks prefetched lines).
        self._tag_fills = pf.nsp

        #: invoked (with the cycle count so far) when the warmup window ends,
        #: so the owner can snapshot counters and report post-warmup deltas.
        self.on_warmup = None

        #: opt-in runtime invariant checking (:mod:`repro.sanitize`); None
        #: keeps the hot loop at one extra integer compare per instruction.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(config) if sanitize_enabled(config) else None
        )

        #: load-latency histogram buckets (cycles): L1 hits, L2-ish, memory-ish,
        #: worse (queueing/MSHR stalls).  Written into stats at end of run.
        self._latency_edges = (
            config.hierarchy.l1.latency,
            config.hierarchy.l1.latency + config.hierarchy.l2.latency + 1,
            config.hierarchy.l1.latency
            + config.hierarchy.l2.latency
            + config.hierarchy.memory_latency
            + 8,
        )
        self._latency_buckets = [0, 0, 0, 0]

        # Feedback wiring (Figure 3's update path).
        self.hierarchy.l1.on_evict = self._on_l1_evict
        self.hierarchy.on_buffer_evict = self._on_buffer_evict
        if self.sdp is not None:
            self.hierarchy.l2.on_evict = lambda ev: self.sdp.on_l2_eviction(ev.line_addr)

    def set_extension_prefetcher(self, prefetcher) -> None:
        """Install a custom HardwarePrefetcher in the extension slot.

        Replaces the stride unit (the slot the config's ``stride`` flag
        controls) with any :class:`~repro.prefetch.base.HardwarePrefetcher`
        — e.g. the Markov correlation prefetcher in the ablation benches.
        """
        self.stride = prefetcher
        self._stride_wants_address = hasattr(prefetcher, "observe_address")

    # ------------------------------------------------------------------
    # Feedback path
    # ------------------------------------------------------------------
    def _on_l1_evict(self, evicted) -> None:
        if not evicted.pib:
            return
        self.classifier.on_l1_eviction(evicted)
        self.filter.on_feedback(evicted.line_addr, evicted.trigger_pc, evicted.rib)

    def _on_buffer_evict(self, line) -> None:
        self.classifier.on_buffer_eviction(line)
        self.filter.on_feedback(line.line_addr, line.trigger_pc, line.referenced)

    # ------------------------------------------------------------------
    # Prefetch control path: squash -> filter -> queue
    # ------------------------------------------------------------------
    def _route_prefetch(self, request: PrefetchRequest, now: int) -> None:
        classifier = self.classifier
        classifier.on_generated(request)
        if self.hierarchy.is_duplicate_prefetch(request.line_addr, now):
            classifier.on_squashed(request)
            return
        if not self.filter.should_prefetch(request):
            classifier.on_filtered(request)
            return
        if not self.queue.push(request, now):
            classifier.on_dropped(request)

    def _drain_queue(self, now: int) -> None:
        """Issue queued prefetches into ports idle near the program point.

        ``now`` is the current instruction's memory-access horizon (its
        dispatch slot + address generation); a prefetch may take any port
        slot up to one cycle past it — the same window a demand access of
        this cycle would occupy.  Under demand saturation ``earliest_free``
        runs ahead of the horizon and prefetches queue up (Section 5.4's
        port-contention effect); in stall shadows the ports are idle and
        the queue drains into them.

        Two throttles keep prefetching from starving the demand path the
        way real controllers do: prefetches hold back unless the MSHR file
        keeps spare entries for demand misses, and at most a handful issue
        per drain call so one stall shadow cannot flood the hierarchy with
        a timestamp pile-up.
        """
        issued = 0
        hierarchy = self.hierarchy
        queue = self.queue
        mshr = hierarchy.mshr
        ports = hierarchy.ports
        horizon = now + 1
        while len(queue) and issued < _DRAIN_BURST:
            head, enqueued = queue.peek()
            ready = enqueued + 1  # one cycle of queue traversal
            when = max(ready, ports.earliest_free())
            if when > horizon:
                break
            if mshr.free_slots(when) <= _MSHR_DEMAND_RESERVE:
                break
            grant = ports.try_acquire_prefetch(when)
            if grant is None:
                break
            request = queue.pop(grant)
            if hierarchy.is_duplicate_prefetch(request.line_addr, grant):
                # A demand miss beat the prefetch to the line: late duplicate.
                self.classifier.on_squashed(request)
                continue
            hierarchy.issue_prefetch(
                request.line_addr,
                grant,
                request.source,
                request.trigger_pc,
                nsp_tag=self._tag_fills,
            )
            self.classifier.on_issued(request)
            issued += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> int:
        """Execute the trace; returns total cycles to retire everything.

        Hot-loop structure: the four trace columns are converted to plain
        Python lists once (scalar indexing into numpy arrays costs a boxed
        object per read), every per-instruction attribute and bound-method
        lookup is hoisted into a local, and the latency histogram is kept in
        four local integers — all measurable wins at hundreds of thousands
        of iterations.
        """
        n = len(trace)
        limit = self.config.max_instructions
        if limit is not None:
            n = min(n, limit)
        iclass_col = trace.iclass[:n].tolist()
        pc_col = trace.pc[:n].tolist()
        addr_col = trace.addr[:n].tolist()
        taken_col = trace.taken[:n].tolist()

        issue_width = self.config.processor.issue_width
        retire_width = self.config.processor.retire_width
        flush_penalty = self.config.processor.mispredict_penalty

        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        BRANCH = int(InstrClass.BRANCH)
        SW_PF = int(InstrClass.SW_PREFETCH)
        FP = int(InstrClass.FP_OP)

        disp_cycle = 0
        disp_in_cycle = 0
        ret_cycle = 0
        ret_in_cycle = 0
        last_retire = 0
        flush_until = 0
        warmup = min(self.config.warmup_instructions, n)
        on_warmup = self.on_warmup

        l1_latency = self.config.hierarchy.l1.latency
        edge0, edge1, edge2 = self._latency_edges
        bucket0 = bucket1 = bucket2 = bucket3 = 0

        # Hoisted hot-path callables/state.
        rob_constraint = self.rob.constraint
        rob_push = self.rob.push
        lsq_constraint = self.lsq.constraint
        lsq_push = self.lsq.push
        demand_access = self.hierarchy.demand_access
        branch_resolve = self.branch_unit.resolve
        route_prefetch = self._route_prefetch
        drain_queue = self._drain_queue
        queue = self.queue
        nsp = self.nsp
        sdp = self.sdp
        stride = self.stride
        sw_unit = self.sw_unit
        nsp_observe = nsp.observe if nsp is not None else None
        sdp_observe = sdp.observe if sdp is not None else None
        sdp_confirm = sdp.confirm_use if sdp is not None else None
        stride_wants_address = self._stride_wants_address

        # Sanitizer cadence: disabled runs keep san_next at -1, so the
        # only hot-loop cost is one integer compare per instruction.
        sanitizer = self.sanitizer
        san_interval = sanitizer.interval if sanitizer is not None else 0
        san_next = san_interval if sanitizer is not None else -1

        for i in range(n):
            if i == warmup and on_warmup is not None:
                on_warmup(last_retire)
            if i == san_next:
                sanitizer.periodic(self, last_retire)
                san_next += san_interval
            cls = iclass_col[i]
            is_mem = cls == LOAD or cls == STORE or cls == SW_PF

            # ---- dispatch ------------------------------------------------
            earliest = rob_constraint()
            if flush_until > earliest:
                earliest = flush_until
            if is_mem:
                lc = lsq_constraint()
                if lc > earliest:
                    earliest = lc
            if earliest > disp_cycle:
                disp_cycle = earliest
                disp_in_cycle = 0
            elif disp_in_cycle >= issue_width:
                disp_cycle += 1
                disp_in_cycle = 0
            disp_in_cycle += 1
            slot = disp_cycle

            # ---- execute --------------------------------------------------
            if cls == LOAD or cls == STORE:
                pc = pc_col[i]
                addr = addr_col[i]
                result = demand_access(addr, cls == STORE, slot + _AGEN_LATENCY)
                if cls == LOAD:
                    complete = result.complete
                    latency = complete - result.grant
                    if latency <= edge0:
                        bucket0 += 1
                    elif latency <= edge1:
                        bucket1 += 1
                    elif latency <= edge2:
                        bucket2 += 1
                    else:
                        bucket3 += 1
                elif result.mshr_stalled:
                    # Store-buffer backpressure: a store miss that found the
                    # MSHR file full blocks like a load, throttling streams
                    # of store misses to the memory system's service rate.
                    complete = result.complete
                else:
                    # Non-blocking store: retirement waits for the port +
                    # L1 write only; the miss (if any) drains in background.
                    complete = result.grant + l1_latency
                if result.first_use_prefetched and sdp_confirm is not None:
                    sdp_confirm(result.line_addr)
                # Hardware prefetch triggers observe the resolved access.
                if nsp_observe is not None:
                    for req in nsp_observe(pc, result):
                        route_prefetch(req, slot)
                if sdp_observe is not None:
                    for req in sdp_observe(pc, result):
                        route_prefetch(req, slot)
                if stride is not None and cls == LOAD:
                    if stride_wants_address:
                        requests = stride.observe_address(pc, addr)
                    else:
                        requests = stride.observe(pc, result)
                    for req in requests:
                        route_prefetch(req, slot)
            elif cls == BRANCH:
                complete = slot + _INT_LATENCY
                if not branch_resolve(pc_col[i], bool(taken_col[i])):
                    flush_until = complete + flush_penalty
            elif cls == SW_PF:
                complete = slot + _INT_LATENCY
                if sw_unit is not None:
                    route_prefetch(sw_unit.request(pc_col[i], addr_col[i]), slot)
            elif cls == FP:
                complete = slot + _FP_LATENCY
            else:
                complete = slot + _INT_LATENCY

            # ---- prefetch queue drain -------------------------------------
            # The drain horizon is the *retirement* clock, not the dispatch
            # slot: dispatch timestamps compress bursts of instructions into
            # few cycles, making ports look booked solid, while the machine
            # is actually stalled on misses with its L1 ports idle — exactly
            # when queued prefetches issue on real hardware.  Using the
            # in-order retirement time as "now" exposes that idle capacity;
            # during genuinely port-saturated stretches (dense demand traffic
            # with no stalls) last_retire tracks the dispatch slot and the
            # contention behaviour is preserved.
            if len(queue):
                drain_queue((slot if slot > last_retire else last_retire) + _AGEN_LATENCY)

            # ---- retire ---------------------------------------------------
            rt = complete if complete > last_retire else last_retire
            if rt > ret_cycle:
                ret_cycle = rt
                ret_in_cycle = 0
            elif ret_in_cycle >= retire_width:
                ret_cycle += 1
                ret_in_cycle = 0
                rt = ret_cycle
            ret_in_cycle += 1
            last_retire = rt
            rob_push(rt)
            if is_mem:
                lsq_push(rt)

        # ---- end of run ---------------------------------------------------
        self._latency_buckets = [bucket0, bucket1, bucket2, bucket3]
        for request in self.queue.pending_requests():
            self.classifier.on_dropped(request)
        self.queue.clear()
        self.hierarchy.drain()
        self.stats.set("instructions", n)
        self.stats.set("cycles", max(1, last_retire))
        lat = self.stats["load_latency"]
        for key, count in zip(("l1", "l2", "memory", "queued"), self._latency_buckets):
            lat.set(key, count)
        return max(1, last_retire)
