"""Cross-engine differential oracle + golden-run corpus.

Two independent implementations of the same machine — the event-driven
``OoOPipeline`` and the flat-array ``KernelEngine`` — are this repo's
strongest correctness oracle: a model bug has to be made *twice, in two
different styles* to survive a comparison between them.  This module
is the reusable library behind ``repro-sim verify``:

* :func:`run_parity` runs one (workload, filter) pair through both
  engines under :func:`relaxed_config` twins and checks the documented
  parity contract — exact equality for trace-determined counters
  (instructions, L1 demand accesses), a rel-or-abs tolerance for
  classification counters whose residuals come from 1-cycle enqueue
  delay and LRU timestamp ties;
* :func:`run_kernel_parity` holds the kernel's two execution legs to a
  stricter contract: the ``cc`` leg is a C port of the Python ``interp``
  leg, so its full golden counter vector must match **bit-for-bit** on
  the paper-default machine — no tolerance band at all;
* :func:`verify_golden` replays a corpus of locked counter vectors
  (``tests/golden/*.json``) and demands bit-identical results, gated on
  :data:`~repro.analysis.result_cache.MODEL_VERSION` so an intentional
  model change gives an actionable "regenerate" message instead of a
  wall of diffs;
* :func:`write_corpus` is the explicit regeneration path, also exposed
  as ``tests/golden/regen.py``.

The tolerances here are the single definition of the contract; the
tier-1 tests (``tests/test_relaxed_parity.py``) import them, so the CI
test and the CLI command enforce the same numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.result_cache import MODEL_VERSION
from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig
from repro.core import _ckernel
from repro.core.kernel import MODE_CC, MODE_INTERP
from repro.core.simulator import SimulationResult, Simulator
from repro.workloads import cached_trace

#: Parity tolerance for classification counters under the contention-free
#: machine (a delta passes when it is small relatively OR absolutely: tiny
#: counters produce large ratios from single-event timestamp ties).
REL_TOL = 0.12
ABS_TOL = 80

#: Prefetch classification counters compared under the tolerance.
COUNTER_KEYS = ("generated", "squashed", "filtered", "dropped", "issued", "good", "bad")

#: Memory-system scalars compared under the tolerance.
SCALAR_KEYS = (
    "l1_demand_misses",
    "l2_demand_accesses",
    "l2_demand_misses",
    "prefetch_line_traffic",
    "demand_line_traffic",
)

#: Trace-determined scalars that must match bit-for-bit.
EXACT_KEYS = ("instructions", "l1_demand_accesses")

DEFAULT_WORKLOADS = ("em3d", "mcf")
DEFAULT_FILTERS = ("none", "pa", "pc")
DEFAULT_INSTS = 12_000
DEFAULT_SEED = 0


# ----------------------------------------------------------------------
# Parity (pipeline vs kernel under the relaxed machine)
# ----------------------------------------------------------------------
def relaxed_config(config: SimulationConfig) -> SimulationConfig:
    """A contention-free twin of ``config`` for kernel/pipeline parity.

    Same caches, prefetchers and filter, but every throttle that delays
    or drops a pipeline prefetch is widened until it cannot bind: unit
    miss latencies (no stall shadows, so MSHR residency is momentary),
    L1 ports matching the issue width (the port arbiter never backs
    up), and MSHR/queue capacities far above any reachable occupancy.
    Under such a machine the pipeline issues every surviving prefetch
    promptly — the semantic the kernel engine implements directly — so
    the two engines' classification counters must agree.
    """
    h = config.hierarchy
    return replace(
        config,
        hierarchy=replace(
            h,
            l1=replace(h.l1, latency=1, ports=config.processor.issue_width),
            l2=replace(h.l2, latency=1),
            memory_latency=1,
            mshr_entries=1 << 16,
        ),
        prefetch=replace(config.prefetch, queue_entries=1 << 16),
    )


@dataclass(frozen=True)
class ParityDelta:
    """One compared counter: both engines' values and the verdict."""

    key: str
    pipeline: int
    kernel: int
    exact: bool

    @property
    def delta(self) -> int:
        return abs(self.pipeline - self.kernel)

    @property
    def rel(self) -> float:
        return self.delta / max(1, self.pipeline)

    @property
    def ok(self) -> bool:
        if self.exact:
            return self.pipeline == self.kernel
        return self.rel <= REL_TOL or self.delta <= ABS_TOL


@dataclass(frozen=True)
class ParityReport:
    """The outcome of one pipeline-vs-kernel differential run."""

    workload: str
    filter_name: str
    n_insts: int
    seed: int
    deltas: Tuple[ParityDelta, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.deltas)

    @property
    def failures(self) -> Tuple[ParityDelta, ...]:
        return tuple(d for d in self.deltas if not d.ok)

    @property
    def worst(self) -> Optional[ParityDelta]:
        inexact = [d for d in self.deltas if not d.exact]
        if not inexact:
            return None
        return max(inexact, key=lambda d: d.rel)


def run_parity(
    workload: str,
    kind: FilterKind = FilterKind.PA,
    n_insts: int = DEFAULT_INSTS,
    seed: int = DEFAULT_SEED,
    sanitize: bool = False,
    config: Optional[SimulationConfig] = None,
) -> ParityReport:
    """Run both engines under relaxed twins and diff the parity contract."""
    cfg = config if config is not None else SimulationConfig.paper_default(kind)
    if sanitize and not cfg.sanitize:
        cfg = replace(cfg, sanitize=True)
    cfg = relaxed_config(cfg)
    p = run_workload(workload, cfg, n_insts, seed, "pipeline")
    k = run_workload(workload, cfg, n_insts, seed, "kernel")
    deltas: List[ParityDelta] = []
    for key in EXACT_KEYS:
        deltas.append(ParityDelta(key, int(getattr(p, key)), int(getattr(k, key)), exact=True))
    for key in COUNTER_KEYS:
        deltas.append(
            ParityDelta(key, int(getattr(p.prefetch, key)), int(getattr(k.prefetch, key)), exact=False)
        )
    for key in SCALAR_KEYS:
        deltas.append(ParityDelta(key, int(getattr(p, key)), int(getattr(k, key)), exact=False))
    return ParityReport(workload, kind.value, n_insts, seed, tuple(deltas))


# ----------------------------------------------------------------------
# Exact parity (cc vs interp — one kernel source, zero tolerance)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExactParityReport:
    """Outcome of one cc-vs-interp bit-identity run.

    The ``cc`` leg is a port of the ``interp`` leg, not an independent
    model, so the comparison is exact over the full golden counter vector
    (scalars, cycles and every prefetch tally) on the *paper-default*
    machine — relaxation would only mask a porting bug.  ``skipped``
    carries the reason when the ``cc`` leg cannot be built here; a
    compiler that rejects its source is a mismatch instead, carrying the
    compiler's message.
    """

    workload: str
    filter_name: str
    n_insts: int
    seed: int
    mismatches: Tuple[str, ...]
    skipped: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_kernel_leg(
    workload: str, config: SimulationConfig, n_insts: int, seed: int, mode: str
) -> SimulationResult:
    """One kernel-engine run pinned to execution leg ``mode``."""
    sim = Simulator(config, engine="kernel")
    sim.engine.mode = mode
    return sim.run(cached_trace(workload, n_insts, seed))


def run_kernel_parity(
    workload: str,
    kind: FilterKind = FilterKind.PA,
    n_insts: int = DEFAULT_INSTS,
    seed: int = DEFAULT_SEED,
    sanitize: bool = False,
    config: Optional[SimulationConfig] = None,
) -> ExactParityReport:
    """Run the cc and interp legs on the same config and demand bit
    identity, whatever ``REPRO_KERNEL_MODE`` says."""
    if _ckernel.rejected():
        return ExactParityReport(workload, kind.value, n_insts, seed, (_ckernel.LOAD_ERROR,))
    if _ckernel.load() is None:
        reason = f"cc leg unavailable: {_ckernel.LOAD_ERROR or 'not built'}"
        return ExactParityReport(workload, kind.value, n_insts, seed, (), reason)
    cfg = config if config is not None else SimulationConfig.paper_default(kind)
    if sanitize and not cfg.sanitize:
        cfg = replace(cfg, sanitize=True)
    expected = golden_counters(run_kernel_leg(workload, cfg, n_insts, seed, MODE_INTERP))
    got = golden_counters(run_kernel_leg(workload, cfg, n_insts, seed, MODE_CC))
    mismatches = tuple(
        f"{key}: interp {expected[key]} != cc {got[key]}"
        for key in expected
        if expected[key] != got[key]
    )
    return ExactParityReport(workload, kind.value, n_insts, seed, mismatches)


# ----------------------------------------------------------------------
# Golden-run corpus
# ----------------------------------------------------------------------
#: Counters locked by a golden record (all integers, compared exactly).
GOLDEN_KEYS = (
    "instructions",
    "cycles",
    "l1_demand_accesses",
    "l1_demand_misses",
    "l2_demand_accesses",
    "l2_demand_misses",
    "l1_prefetch_fills",
    "prefetch_line_traffic",
    "demand_line_traffic",
)


def golden_counters(result) -> Dict[str, int]:
    """The locked counter vector for one run: scalars + the full tally."""
    counters = {key: int(getattr(result, key)) for key in GOLDEN_KEYS}
    for key in COUNTER_KEYS:
        counters[f"prefetch.{key}"] = int(getattr(result.prefetch, key))
    return counters


def default_corpus() -> Tuple[Tuple[str, str, str], ...]:
    """(workload, filter, engine) specs regenerated by ``regen.py``."""
    return tuple(
        (workload, filter_name, engine)
        for workload in DEFAULT_WORKLOADS
        for filter_name in DEFAULT_FILTERS
        for engine in ("pipeline", "kernel")
    )


def _golden_record(
    workload: str, filter_name: str, engine: str, n_insts: int, seed: int
) -> Dict[str, object]:
    kind = FilterKind.from_name(filter_name)
    cfg = SimulationConfig.paper_default(kind)
    result = run_workload(workload, cfg, n_insts, seed, engine)
    return {
        "model_version": MODEL_VERSION,
        "workload": workload,
        "filter": filter_name,
        "engine": engine,
        "n_insts": n_insts,
        "seed": seed,
        "counters": golden_counters(result),
    }


def write_corpus(
    directory, specs: Optional[Iterable[Tuple[str, str, str]]] = None,
    n_insts: int = DEFAULT_INSTS, seed: int = DEFAULT_SEED,
) -> List[Path]:
    """(Re)generate the golden corpus; one JSON file per spec."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for workload, filter_name, engine in specs or default_corpus():
        record = _golden_record(workload, filter_name, engine, n_insts, seed)
        path = directory / f"{workload}-{filter_name}-{engine}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


@dataclass(frozen=True)
class GoldenOutcome:
    """The verdict for one golden record replay."""

    path: Path
    ok: bool
    stale: bool
    mismatches: Tuple[str, ...]
    message: str


def default_golden_dir() -> Optional[Path]:
    """``tests/golden`` relative to the repo root, when it exists."""
    candidate = Path(__file__).resolve().parents[3] / "tests" / "golden"
    return candidate if candidate.is_dir() else None


def verify_golden(directory) -> List[GoldenOutcome]:
    """Replay every golden record in ``directory`` and diff exactly.

    A record whose ``model_version`` does not match the current
    :data:`MODEL_VERSION` is reported as *stale* (not a failure of the
    model — the corpus needs ``python tests/golden/regen.py``).
    """
    outcomes: List[GoldenOutcome] = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
            version = record["model_version"]
            counters = record["counters"]
            workload = record["workload"]
            filter_name = record["filter"]
            engine = record["engine"]
            n_insts = int(record["n_insts"])
            seed = int(record["seed"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            outcomes.append(
                GoldenOutcome(path, False, False, (), f"unreadable golden record: {exc}")
            )
            continue
        if version != MODEL_VERSION:
            outcomes.append(
                GoldenOutcome(
                    path, False, True, (),
                    f"locked under MODEL_VERSION={version!r}, current is "
                    f"{MODEL_VERSION!r}: regenerate with `python tests/golden/regen.py`",
                )
            )
            continue
        fresh = _golden_record(workload, filter_name, engine, n_insts, seed)["counters"]
        mismatches = tuple(
            f"{key}: locked {counters.get(key)} != fresh {fresh.get(key)}"
            for key in sorted(set(counters) | set(fresh))
            if counters.get(key) != fresh.get(key)
        )
        if mismatches:
            outcomes.append(
                GoldenOutcome(
                    path, False, False, mismatches,
                    f"{len(mismatches)} counter(s) diverged from locked values "
                    "(if the model change is intentional, bump MODEL_VERSION and "
                    "run `python tests/golden/regen.py`)",
                )
            )
        else:
            outcomes.append(GoldenOutcome(path, True, False, (), "bit-identical"))
    return outcomes
