"""Outside-in span tracing for the benchmark's traced reps.

:class:`Tracer` wraps the public callables of each ``repro`` layer (the
:data:`TARGETS` table) for the length of one rep and restores the
originals afterwards.  Each callable is patched where its caller looks
it up: ``repro.analysis.resilience`` calls ``parallel.execute_job``
through the module, while ``repro.analysis.checkpoint`` imported its own
binding of ``result_to_dict``, so both bindings are wrapped under one
span name.

Spans (name, start, end, parent) live in memory on per-thread lists and
are reduced at the end: per span name its calls, self time (duration
minus the part its child spans cover) and inclusive time per call.  The
bench records the root span, ``analysis.parallel.run_jobs``, around its
own call; the root's self time is the time no layer span accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT_SPAN = "analysis.parallel.run_jobs"

#: (span name, module, attribute) — one row per binding a caller uses.
TARGETS = (
    ("workloads.generate", "repro.workloads.base", "Workload.generate"),
    ("workloads.swprefetch", "repro.workloads", "insert_software_prefetches"),
    ("trace.store.get_or_build", "repro.trace.store", "TraceStore.get_or_build"),
    ("trace.store.get", "repro.trace.store", "TraceStore.get"),
    ("trace.store.put", "repro.trace.store", "TraceStore.put"),
    ("core.simulator.construct", "repro.core.simulator", "Simulator.__init__"),
    ("core.simulator.run", "repro.core.simulator", "Simulator.run"),
    ("core.kernel.run", "repro.core.kernel", "KernelEngine.run"),
    ("core.pipeline.run", "repro.core.pipeline", "OoOPipeline.run"),
    ("analysis.parallel.execute_job", "repro.analysis.parallel", "execute_job"),
    ("analysis.parallel.job_key", "repro.analysis.parallel", "SimulationJob.key"),
    ("analysis.result_cache.get", "repro.analysis.result_cache", "ResultCache.get"),
    ("analysis.result_cache.put", "repro.analysis.result_cache", "ResultCache.put"),
    ("analysis.result_cache.to_dict", "repro.analysis.result_cache", "result_to_dict"),
    ("analysis.result_cache.to_dict", "repro.analysis.checkpoint", "result_to_dict"),
    ("analysis.checkpoint.record_success", "repro.analysis.checkpoint",
     "RunJournal.record_success"),
)

#: Every span name the summary reports, root first, in table order.
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(name for name, _, _ in TARGETS))

_END = 2  # index of the end time in a span record


class Tracer:
    """Records spans around the :data:`TARGETS` callables while installed."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.origin = time.perf_counter_ns()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread ident -> that thread's spans, ``[name, start, end, parent]``.
        self.threads: Dict[int, List[list]] = {}
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self.threads[threading.get_ident()] = spans
        return spans, local.stack

    def begin(self, name: str) -> int:
        spans, stack = self._thread_state()
        index = len(spans)
        spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        spans, stack = self._thread_state()
        spans[index][_END] = time.perf_counter_ns()
        stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owners else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------
    def spans(self):
        """Yield ``(tid, name, start, end, parent)`` for every closed span."""
        for tid, spans in self.threads.items():
            for name, start, end, parent in spans:
                if end:
                    yield tid, name, start, end, parent

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_ns`` (inclusive), ``self_ns``."""
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in SPAN_NAMES}
        for spans in self.threads.values():
            covered = [0] * len(spans)
            for name, start, end, parent in spans:
                if end and parent >= 0:
                    covered[parent] += end - start
            for index, (name, start, end, _) in enumerate(spans):
                if not end:
                    continue
                entry = out[name]
                entry["calls"] += 1
                entry["total_ns"] += end - start
                entry["self_ns"] += end - start - covered[index]
        return out

    def durations_ms(self, name: str) -> List[float]:
        return [(end - start) / 1e6 for _, n, start, end, _ in self.spans() if n == name]

    def write_chrome_trace(self, path: Path, metadata: Optional[dict] = None) -> None:
        """Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
        tids = {tid: i for i, tid in enumerate(sorted(self.threads))}
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - self.origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": self.pid,
                "tid": tids[tid],
                "args": {"parent": parent},
            }
            for tid, name, start, end, parent in self.spans()
        ]
        events.sort(key=lambda e: (e["tid"], e["ts"]))
        payload = {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata or {}}
        path.write_text(json.dumps(payload))
