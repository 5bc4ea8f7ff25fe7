"""Locked result payloads: both engines must reproduce every result byte for byte.

A digest is :func:`repro.analysis.result_cache.payload_digest` over
:func:`repro.analysis.result_cache.result_to_dict`, the bytes the result
cache hashes: every scalar, both tally structures and the flat stats
tree.  The locked values in ``tests/golden/results/payload_digests.json``
cover

* the kernel engine on its ``cc`` leg: em3d, mcf and gzip at 12k
  instructions × none/PA/PC × nine machine variants (warm-up windows,
  an instruction cap, prefetchers off, a deeper NSP degree, an odd
  history-table geometry, a small set-associative L1);
* per workload, one PA warm-up run on the ``interp`` leg and one run
  with the sanitizer on;
* a trace with no memory operations, with and without a warm-up window;
* the pipeline engine: em3d and mcf at 6k × none/PA/PC × warm-up 0 and
  1,500, plus PA and PC with the prefetch buffer on and the ``adaptive``
  filter, each at warm-up 1,500.

Every kernel case pins its leg, because the leg id is part of the
payload.  The ``cc`` cases skip where that leg cannot be built, and
fail where a compiler rejects its source.
The fixture sits in ``tests/golden/results/``, not ``tests/golden/``,
because the golden corpus reads every ``*.json`` directly in
``tests/golden``.  After an intentional model change (with a
``MODEL_VERSION`` bump), rewrite it with::

    PYTHONPATH=src python tests/test_result_payloads.py
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.analysis.result_cache import payload_digest, result_to_dict
from repro.common.config import FilterKind, SimulationConfig
from repro.core import _ckernel
from repro.core.kernel import MODE_CC, MODE_INTERP
from repro.core.simulator import SimulationResult, Simulator
from repro.trace.stream import Trace, TraceBuilder
from repro.workloads import cached_trace

FIXTURE = Path(__file__).resolve().parent / "golden" / "results" / "payload_digests.json"

KERNEL_WORKLOADS = ("em3d", "mcf", "gzip")
KERNEL_INSTS = 12_000
PIPELINE_WORKLOADS = ("em3d", "mcf")
PIPELINE_INSTS = 6_000
FILTERS = (FilterKind.NONE, FilterKind.PA, FilterKind.PC)


def _variants(cfg: SimulationConfig) -> Dict[str, SimulationConfig]:
    return {
        "no-warmup": cfg,
        "warmup-3000": cfg.with_warmup(3_000),
        "warmup-past-end": cfg.with_warmup(2 * KERNEL_INSTS),
        "max-7000-warmup-2000": replace(cfg, max_instructions=7_000, warmup_instructions=2_000),
        "nsp-off": cfg.with_prefetch(nsp=False),
        "sdp-sw-off": cfg.with_prefetch(sdp=False, software=False),
        "degree-4": cfg.with_prefetch(degree=4),
        "table-256x3-init1-th3": cfg.with_filter(
            table_entries=256, counter_bits=3, initial_value=1, threshold=3
        ),
        "l1-4kb-2way": cfg.with_l1(replace(cfg.hierarchy.l1, size_bytes=4 * 1024, assoc=2)),
    }


def _no_memory_trace() -> Trace:
    builder = TraceBuilder("no-memory")
    builder.ops("op", 500)
    return builder.build()


def _run(trace: Callable[[], Trace], cfg: SimulationConfig, engine: str, mode: str = "") -> SimulationResult:
    sim = Simulator(cfg, engine=engine)
    if mode:
        sim.engine.mode = mode
    return sim.run(trace())


def _cases() -> Dict[str, Tuple[bool, Callable[[], SimulationResult]]]:
    """Case key -> (needs the cc leg, run)."""
    cases: Dict[str, Tuple[bool, Callable[[], SimulationResult]]] = {}
    for workload in KERNEL_WORKLOADS:
        trace = partial(cached_trace, workload, KERNEL_INSTS, 0)
        for kind in FILTERS:
            base = SimulationConfig.paper_default(kind)
            for variant, cfg in _variants(base).items():
                key = f"kernel/{workload}/{kind.value}/{variant}"
                cases[key] = (True, partial(_run, trace, cfg, "kernel", MODE_CC))
        pa_warm = SimulationConfig.paper_default(FilterKind.PA).with_warmup(3_000)
        cases[f"kernel/{workload}/pa/warmup-3000/interp"] = (
            False, partial(_run, trace, pa_warm, "kernel", MODE_INTERP),
        )
        cases[f"kernel/{workload}/pa/warmup-3000/sanitize"] = (
            True, partial(_run, trace, pa_warm.with_sanitize(), "kernel", MODE_CC),
        )
    for warmup in (0, 100):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(warmup)
        cases[f"kernel/no-memory/pa/warmup-{warmup}"] = (
            True, partial(_run, _no_memory_trace, cfg, "kernel", MODE_CC),
        )
    for workload in PIPELINE_WORKLOADS:
        trace = partial(cached_trace, workload, PIPELINE_INSTS, 0)
        for kind in FILTERS:
            for warmup in (0, 1_500):
                cfg = SimulationConfig.paper_default(kind).with_warmup(warmup)
                key = f"pipeline/{workload}/{kind.value}/warmup-{warmup}"
                cases[key] = (False, partial(_run, trace, cfg, "pipeline"))
        for kind in (FilterKind.PA, FilterKind.PC):
            cfg = SimulationConfig.paper_default(kind).with_buffer().with_warmup(1_500)
            key = f"pipeline/{workload}/{kind.value}/buffer/warmup-1500"
            cases[key] = (False, partial(_run, trace, cfg, "pipeline"))
        cfg = SimulationConfig.paper_default(FilterKind.ADAPTIVE).with_warmup(1_500)
        cases[f"pipeline/{workload}/adaptive/warmup-1500"] = (False, partial(_run, trace, cfg, "pipeline"))
    return cases


CASES = _cases()
LOCKED: Dict[str, str] = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def result_digest(result: SimulationResult) -> str:
    return payload_digest(result_to_dict(result))


def test_fixture_covers_every_case():
    assert LOCKED, f"{FIXTURE} is missing"
    assert sorted(CASES) == sorted(LOCKED)


def _require_cc() -> None:
    if _ckernel.rejected():
        pytest.fail(_ckernel.LOAD_ERROR)
    if _ckernel.load() is None:
        pytest.skip(f"no C compiler builds the cc leg: {_ckernel.LOAD_ERROR}")


@pytest.mark.parametrize("key", sorted(CASES))
def test_result_payload_is_bit_identical(key):
    needs_cc, run = CASES[key]
    if needs_cc:
        _require_cc()
    assert result_digest(run()) == LOCKED[key], f"{key}: result payload moved"


def test_kernel_cases_in_any_order_on_shared_traces():
    """Every kernel case again in one process, reversed and then shuffled,
    on the shared ``cached_trace`` objects: a run that reuses the previous
    run's columns or scratch state must not see its table size, filter,
    L1 geometry, instruction cap or software-prefetch setting."""
    _require_cc()
    keys = [key for key in CASES if key.startswith("kernel/")]
    order = keys[::-1] + random.Random(2003).sample(keys, len(keys))
    moved = [key for key in order if result_digest(CASES[key][1]()) != LOCKED[key]]
    assert not moved, f"payloads moved when run in another order: {moved}"


if __name__ == "__main__":
    if _ckernel.load() is None:
        sys.exit(f"the cc leg does not build here: {_ckernel.LOAD_ERROR}")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    digests = {key: result_digest(run()) for key, (_, run) in CASES.items()}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
