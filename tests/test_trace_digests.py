"""Locked trace digests: trace synthesis must reproduce every trace byte for byte.

A digest is sha256 over the raw bytes of the ``iclass``, ``pc``, ``addr``
and ``taken`` columns followed by the record count.  The locked values in
``tests/golden/traces/trace_digests.json`` cover

* all ten workloads through :func:`build_trace`, at 3k instructions (init
  sweep skipped) and 100k, seeds 0 and 7, each digested as generated and
  again after the software-prefetch pass;
* the pass at two non-default settings;
* direct emitter calls no generator makes (empty blocks, no branches, no
  filler ops, all-local blocks, one static site, short init sweeps, scalar
  records interleaved between blocks).

Any change to trace synthesis that moves one of these digests changes the
traces every experiment runs on.  After an intentional one (with a
``TRACE_VERSION`` bump), rewrite the fixture with::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.trace.record import LOAD, SW_PREFETCH
from repro.trace.stream import Trace, TraceBuilder
from repro.workloads import build_trace, insert_software_prefetches, workload_names
from repro.workloads.base import STACK_BASE, emit_access_block, emit_init_sweep, mix_local_accesses

FIXTURE = Path(__file__).resolve().parent / "golden" / "traces" / "trace_digests.json"

LENGTHS = (3_000, 100_000)
SEEDS = (0, 7)
#: (key suffix, pass keyword arguments) run on every seed-0 100k trace.
PASS_SETTINGS = (
    ("swpf-la2-conf3", {"lookahead_lines": 2, "confidence": 3}),
    ("swpf-line64-conf2", {"line_bytes": 64, "confidence": 2}),
)


def trace_digest(trace: Trace) -> str:
    h = hashlib.sha256()
    for column in (trace.iclass, trace.pc, trace.addr, trace.taken):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(str(len(trace)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Direct emitter cases
# ----------------------------------------------------------------------
def _plan(rng: np.random.Generator, count: int, local_fraction: float = 0.5) -> np.ndarray:
    cold = 0x4000_0000 + np.arange(count, dtype=np.uint64) * np.uint64(24)
    return mix_local_accesses(rng, cold, local_fraction)


def _case(blocks: Callable[[TraceBuilder, np.random.Generator], None]) -> Trace:
    """Run ``blocks``, then one ordinary block, so RNG use shows in the digest."""
    builder = TraceBuilder("case")
    rng = np.random.default_rng(3)
    blocks(builder, rng)
    emit_access_block(builder, rng, "tail", _plan(rng, 9), store_fraction=0.3)
    return builder.build()


def _empty(b, rng):
    emit_access_block(b, rng, "k", [])
    emit_access_block(b, rng, "k", np.array([], dtype=np.uint64), branch_every=0)


def _no_branches(b, rng):
    emit_access_block(b, rng, "k", _plan(rng, 13), branch_every=0, store_fraction=0.4)
    emit_access_block(b, rng, "k", _plan(rng, 5), branch_every=1)


def _no_ops(b, rng):
    emit_access_block(b, rng, "k", _plan(rng, 17), ops_per_access=0, branch_every=3)
    emit_access_block(b, rng, "k", _plan(rng, 6), ops_per_access=0, branch_every=0)


def _all_local(b, rng):
    local = [STACK_BASE + 8 * int(s) for s in rng.integers(0, 96, 11)]
    emit_access_block(b, rng, "k", local, store_fraction=0.5, branch_every=2)


def _one_site(b, rng):
    emit_access_block(b, rng, "k", _plan(rng, 15, 0.3), n_static_sites=1, fp_ops=True)


def _init(lines: int, line_bytes: int = 32):
    def blocks(b, rng):
        emit_init_sweep(b, rng, "r", 0x5000_0000, lines * line_bytes, line_bytes)

    return blocks


def _init_sub_line(b, rng):
    emit_init_sweep(b, rng, "r", 0x5000_0000, 20)


def _scalar_interleaved(b, rng):
    b.load("k.d1.ld", 0x6000_0000)  # a label the next block reuses
    b.ops("k.d0.op", 3)  # overlaps the block's two filler sites, adds a third
    emit_access_block(b, rng, "k", _plan(rng, 10), store_fraction=0.5)
    b.store("x.st", 0x6000_0040)
    b.branch("k.br", True)
    b.ops("x.op", 2, fp=True)
    emit_access_block(b, rng, "k", _plan(rng, 7), n_static_sites=2)
    b.sw_prefetch("x.pf", 0x6000_0080)
    b.emit(LOAD, b.site("x.raw"), 0x6000_00C0)
    emit_init_sweep(b, rng, "r", 0x5000_0000, 12 * 32)
    b.ops("k.d0.op", 1)


def _reused_labels(b, rng):
    # One label under several (n_static_sites, ops_per_access) shapes.
    for sites, ops, every in ((4, 2, 4), (2, 2, 4), (4, 3, 5), (4, 2, 7), (1, 0, 1)):
        emit_access_block(
            b, rng, "k", list(map(int, _plan(rng, 12, 0.6))),
            n_static_sites=sites, ops_per_access=ops, branch_every=every,
            store_fraction=0.25, fp_ops=bool(ops % 2),
        )
    emit_access_block(b, rng, "k", _plan(rng, 8), store_fraction=1.0)


def _swpf_edges() -> Trace:
    """Interleaved PCs: zero strides, stride changes, targets at or below 0."""
    b = TraceBuilder("swpf")
    for i in range(60):
        b.load("down.ld", 0x200 - 32 * i if 0x200 - 32 * i > 0 else 8)
        b.load("up.ld", 0x10000 + 8 * i if i % 13 else 0x10000)
        b.load("same.ld", 0x20000)
        b.load("step.ld", 0x30000 + (16 if i % 5 < 3 else 48) * i)
        b.sw_prefetch("old.pf", 0x40000 + 32 * i)
        b.store("st", 0x50000 + 32 * i)
        b.ops("op", 1)
        b.branch("br", i % 3 == 0)
    return b.build()


EMITTER_CASES: Dict[str, Callable[[TraceBuilder, np.random.Generator], None]] = {
    "empty": _empty,
    "branch_every_0": _no_branches,
    "ops_per_access_0": _no_ops,
    "all_local": _all_local,
    "n_static_sites_1": _one_site,
    "init_1": _init(1),
    "init_7": _init(7),
    "init_8": _init(8),
    "init_9": _init(9),
    "init_sub_line": _init_sub_line,
    "init_9_line64": _init(9, 64),
    "scalar_interleaved": _scalar_interleaved,
    "reused_labels": _reused_labels,
}


def compute_digests() -> Dict[str, str]:
    digests: Dict[str, str] = {}
    for name in workload_names():
        for n_insts in LENGTHS:
            for seed in SEEDS:
                key = f"{name}/{n_insts}/seed{seed}"
                trace = build_trace(name, n_insts, seed, software_prefetch=False)
                digests[key] = trace_digest(trace)
                digests[f"{key}/swpf"] = trace_digest(insert_software_prefetches(trace))
                if n_insts == max(LENGTHS) and seed == 0:
                    for suffix, kwargs in PASS_SETTINGS:
                        swpf = insert_software_prefetches(trace, **kwargs)
                        digests[f"{key}/{suffix}"] = trace_digest(swpf)
    for case, blocks in EMITTER_CASES.items():
        digests[f"emit/{case}"] = trace_digest(_case(blocks))
    edges = _swpf_edges()
    digests["swpf/edges"] = trace_digest(edges)
    digests["swpf/edges/swpf"] = trace_digest(insert_software_prefetches(edges))
    digests["swpf/edges/conf2"] = trace_digest(
        insert_software_prefetches(edges, lookahead_lines=1, confidence=2)
    )
    return digests


LOCKED: Dict[str, str] = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.fixture(scope="module")
def fresh() -> Dict[str, str]:
    return compute_digests()


def test_fixture_covers_every_case(fresh):
    assert LOCKED, f"{FIXTURE} is missing"
    assert sorted(fresh) == sorted(LOCKED)


@pytest.mark.parametrize("key", sorted(LOCKED))
def test_trace_is_bit_identical(fresh, key):
    assert fresh[key] == LOCKED[key], f"{key}: trace bytes moved"


def test_swpf_edge_case_inserts_prefetches():
    # Guards the edge-case digest against degenerating to a no-op pass.
    out = insert_software_prefetches(_swpf_edges())
    assert int((out.iclass == int(SW_PREFETCH)).sum()) > 60


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
