"""Tier-1 tests for the runtime invariant sanitizer, the differential
oracle, artifact integrity, and the hardened trace/CLI front doors."""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob
from repro.analysis.resilience import execute_batch
from repro.analysis.result_cache import (
    ResultCache,
    config_fingerprint,
    payload_digest,
    result_to_dict,
)
from repro.analysis.sweep import run_workload
from repro.common.config import CacheConfig, FilterKind, SimulationConfig
from repro.common.faults import inject_faults
from repro.common.saturating import SaturatingCounterArray
from repro.common.stats import StatGroup
from repro.core.rob import RetirementWindow
from repro.core.simulator import Simulator
from repro.mem.cache import Cache, FillSource, _Line
from repro.mem.mshr import MSHRFile
from repro.mem.ports import PortArbiter
from repro.prefetch.base import PrefetchRequest
from repro.prefetch.queue import PrefetchQueue
from repro.sanitize import (
    Sanitizer,
    SanitizerViolation,
    check_flush_idempotent,
    sanitize_enabled,
)
from repro.sanitize.differential import run_parity, verify_golden, write_corpus
from repro.trace.record import InstrClass
from repro.trace.stream import Trace, TraceBuilder
from repro.workloads import cached_trace

N = 4_000
ENGINES = ("pipeline", "kernel")
KINDS = (FilterKind.NONE, FilterKind.PA, FilterKind.PC, FilterKind.ADAPTIVE)
#: ADAPTIVE stays pipeline-only: the kernel engine rejects it (pinned by
#: tests/test_kernel_engine.py::TestEngineSelection).
SANITIZED_CASES = [
    (kind, engine)
    for engine in ENGINES
    for kind in KINDS
    if not (engine == "kernel" and kind is FilterKind.ADAPTIVE)
]


def _cfg(kind=FilterKind.PA, **overrides) -> SimulationConfig:
    cfg = SimulationConfig.paper_default(kind)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _digest(result) -> str:
    return payload_digest(result_to_dict(result))


# ----------------------------------------------------------------------
# Config validation (front door)
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_engine_names_the_choices(self):
        with pytest.raises(ValueError, match="pipeline.*kernel"):
            _cfg(engine="warp-drive")

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            _cfg(warmup_instructions=-1)

    def test_filter_from_name(self):
        assert FilterKind.from_name(" PA ") is FilterKind.PA
        with pytest.raises(ValueError, match="choose one of"):
            FilterKind.from_name("bogus")

    def test_power_of_two_error_suggests_neighbours(self):
        with pytest.raises(ValueError, match="nearest valid"):
            CacheConfig(size_bytes=1024, line_bytes=33)

    def test_with_sanitize_does_not_change_fingerprint(self):
        cfg = _cfg()
        assert cfg.with_sanitize().sanitize is True
        assert config_fingerprint(cfg) == config_fingerprint(cfg.with_sanitize())

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(None) is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize_enabled(None) is False
        assert sanitize_enabled(_cfg().with_sanitize()) is True


# ----------------------------------------------------------------------
# Property: sanitized runs are clean and bit-identical
# ----------------------------------------------------------------------
class TestSanitizedRuns:
    @pytest.mark.parametrize("kind,engine", SANITIZED_CASES)
    def test_no_violation_and_bit_identical(self, kind, engine, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", "512")  # many sweeps
        plain = run_workload("em3d", _cfg(kind), N, 0, engine)
        checked = run_workload("em3d", _cfg(kind).with_sanitize(), N, 0, engine)
        assert plain.cycles == checked.cycles
        assert plain.prefetch == checked.prefetch
        assert plain.stats.flat() == checked.stats.flat()


class TestSweepsSeeLiveState:
    """The pipeline steps its ROB/LSQ rings in locals and leaves unfilled
    cache sets as a shared empty tuple; the sanitizer sees the live state."""

    def test_rob_and_lsq_occupancy_at_every_periodic_sweep(self, monkeypatch):
        interval = 50  # sweeps below and at both windows' capacity
        monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", str(interval))
        seen = []
        periodic = Sanitizer.periodic

        def recording(self, engine, cycle):
            seen.append((engine.rob.occupancy, engine.lsq.occupancy))
            periodic(self, engine, cycle)

        monkeypatch.setattr(Sanitizer, "periodic", recording)
        cfg = _cfg().with_sanitize()
        trace = cached_trace("em3d", N, 0)
        run_workload("em3d", cfg, engine="pipeline", trace=trace)

        memory = [int(c) for c in (InstrClass.LOAD, InstrClass.STORE, InstrClass.SW_PREFETCH)]
        memory_ops = np.cumsum(np.isin(trace.iclass, memory))
        rob, lsq = cfg.processor.rob_entries, cfg.processor.lsq_entries
        # The sweep before instruction i sees instructions 0..i-1 retired into the rings.
        expected = [
            (min(i, rob), min(int(memory_ops[i - 1]), lsq))
            for i in range(interval, len(trace), interval)
        ]
        assert len(expected) > 2 and expected[0][0] < rob and expected[-1] == (rob, lsq)
        assert seen == expected

    def test_trip_plants_into_a_set_never_filled(self):
        sim = Simulator(_cfg(), engine="pipeline")
        l1 = sim.hierarchy.l1
        assert not l1.sets[0]
        Sanitizer()._trip_hierarchy(sim.engine)
        with pytest.raises(SanitizerViolation, match="RIB set on a line without PIB"):
            l1.validate()


# ----------------------------------------------------------------------
# Targeted corruption: every validator catches its own failure mode
# ----------------------------------------------------------------------
def _small_cache(assoc=2) -> Cache:
    return Cache(CacheConfig(size_bytes=1024, line_bytes=32, assoc=assoc), "l1")


def _plant(cache: Cache, set_index=0, way=0, tag=None):
    line = _Line()
    line.tag = tag if tag is not None else set_index
    line.source = 0
    entries = cache.sets[set_index]
    if not entries:  # an unfilled set is the shared empty tuple: give it a list
        entries = cache.sets[set_index] = []
    entries.insert(way, line)
    cache._occupancy += 1
    return line


class TestStructureValidators:
    def test_cache_tag_set_mismatch(self):
        cache = _small_cache()
        _plant(cache, set_index=0, tag=1)  # tag & mask == 1, parked in set 0
        with pytest.raises(SanitizerViolation, match="set"):
            cache.validate()

    def test_cache_pib_without_prefetch_source(self):
        cache = _small_cache()
        _plant(cache).pib = True  # source stays DEMAND
        with pytest.raises(SanitizerViolation, match="PIB"):
            cache.validate()

    def test_cache_rib_without_pib(self):
        cache = _small_cache()
        _plant(cache).rib = True
        with pytest.raises(SanitizerViolation, match="RIB"):
            cache.validate()

    def test_cache_occupancy_desync(self):
        cache = _small_cache()
        _plant(cache)
        cache._occupancy = 0
        with pytest.raises(SanitizerViolation, match="occupancy"):
            cache.validate()

    def test_cache_duplicate_tags_in_set(self):
        cache = _small_cache(assoc=2)
        num_sets = len(cache.sets)
        _plant(cache, way=0, tag=num_sets)  # congruent to set 0
        _plant(cache, way=1, tag=num_sets)
        with pytest.raises(SanitizerViolation, match="duplicate"):
            cache.validate()

    def test_cache_set_over_its_ways(self):
        cache = _small_cache(assoc=2)
        num_sets = len(cache.sets)
        for way in range(3):
            _plant(cache, way=way, tag=way * num_sets)  # three lines in set 0
        with pytest.raises(SanitizerViolation, match="ways"):
            cache.validate()

    def test_clean_cache_passes(self):
        cache = _small_cache()
        _plant(cache)
        cache.validate()

    def test_mshr_over_capacity(self):
        mshr = MSHRFile(2)
        mshr._pending = {1: 5, 2: 5, 3: 5}
        with pytest.raises(SanitizerViolation, match="capacity"):
            mshr.validate(0)

    def test_mshr_stale_min_ready(self):
        mshr = MSHRFile(4)
        mshr._pending = {1: 5}
        mshr._min_ready = 10  # would make _prune skip a completed fill
        with pytest.raises(SanitizerViolation):
            mshr.validate(20)

    def test_ports_corrupted(self):
        ports = PortArbiter(2)
        ports._next_free = [0]  # lost a port
        with pytest.raises(SanitizerViolation, match="port"):
            ports.validate()
        ports = PortArbiter(2)
        ports._next_free = [-3, 0]
        with pytest.raises(SanitizerViolation):
            ports.validate()

    def test_queue_over_capacity_and_order(self):
        req = PrefetchRequest(64, 0, FillSource.NSP)
        q = PrefetchQueue(2)
        q._q.extend([(req, 0), (req, 1), (req, 2)])
        with pytest.raises(SanitizerViolation, match="capacity"):
            q.validate()
        q = PrefetchQueue(4)
        q._q.extend([(req, 5), (req, 3)])  # enqueue stamps ran backwards
        with pytest.raises(SanitizerViolation):
            q.validate()

    def test_window_count_and_order(self):
        w = RetirementWindow(4)
        w._count = 9
        with pytest.raises(SanitizerViolation, match="occupancy"):
            w.validate()
        w = RetirementWindow(4)
        w.push(5)
        w.push(3)  # retire times must be non-decreasing
        with pytest.raises(SanitizerViolation):
            w.validate("rob")

    def test_counters_out_of_range_names_index(self):
        counters = SaturatingCounterArray(8, bits=2)
        counters.values[3] = 9
        with pytest.raises(SanitizerViolation, match="3"):
            counters.validate(site="history_table")

    def test_flush_idempotence_check(self):
        group = StatGroup("g")
        group.bind_flush(lambda: group.counters.__setitem__(
            "x", group.counters.get("x", 0) + 1
        ))
        with pytest.raises(SanitizerViolation, match="idempotent"):
            check_flush_idempotent(group, "g")


# ----------------------------------------------------------------------
# Chaos: injected corruption must be *detected*, never silently survive
# ----------------------------------------------------------------------
class TestFaultInjection:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_invariant_trip_detected(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", "512")
        cfg = _cfg().with_sanitize()
        trace = cached_trace("em3d", N, 0)
        with inject_faults("invariant-trip@sanitizer"):
            with pytest.raises(SanitizerViolation):
                run_workload("em3d", cfg, engine=engine, trace=trace)
        if engine == "kernel":
            # The tripped run's corrupted state stays with it: a rerun on
            # the same trace object matches a run on a fresh copy of it.
            rerun = run_workload("em3d", cfg, engine=engine, trace=trace)
            clean = run_workload("em3d", cfg, engine=engine, trace=trace.head(len(trace)))
            assert _digest(rerun) == _digest(clean)

    def test_result_cache_corrupt_artifact_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_workload("em3d", _cfg(), N, 0, "kernel")
        with inject_faults("corrupt-artifact@cache"):
            cache.put("k", result)
        fresh = ResultCache(tmp_path)
        assert fresh.get("k") is None  # digest mismatch, not a silent replay
        assert fresh.quarantined == 1
        # A clean put round-trips with its digest intact.
        cache.put("k", result)
        assert ResultCache(tmp_path).get("k") is not None

    def test_trace_store_corrupt_artifact_quarantined(self, tmp_path):
        from repro.trace.store import TraceStore, trace_key

        builder = TraceBuilder("w")
        for i in range(64):
            builder.load("l", 64 * (i + 1))
        trace = builder.build()
        store = TraceStore(tmp_path)
        key = trace_key("w", 64, 0)
        with inject_faults("corrupt-artifact@cache"):
            store.put(key, trace)
        fresh = TraceStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_journal_corrupt_artifact_quarantined_exactly_once(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record_failure("good", "boom")
        with inject_faults("corrupt-artifact@journal"):
            journal.record_failure("bad", "boom")
        replay = RunJournal(journal.path)
        assert set(replay.load()) == {"good"}
        replay.load()  # a second replay must not double-count
        assert replay.quarantined == 1

    def test_journal_legacy_record_without_digest_accepted(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        with open(journal.path, "w") as fh:
            fh.write(json.dumps({"key": "legacy", "ok": False, "error": "x"}) + "\n")
        assert set(journal.load()) == {"legacy"}
        assert journal.quarantined == 0


# ----------------------------------------------------------------------
# Quarantine accounting through a resumed batch (satellite c)
# ----------------------------------------------------------------------
class TestResumeQuarantine:
    def test_corrupt_journal_line_mid_resume_reruns_job(self, tmp_path):
        job = SimulationJob("em3d", _cfg(engine="kernel"), N, 0)
        journal = RunJournal(tmp_path / "run.jsonl")
        first = execute_batch([job], workers=1, journal=journal)
        assert first.outcomes[0].ok and not first.outcomes[0].from_journal

        # Tamper with the journaled success: change the payload digest it
        # names without touching the line's seal, the way a bad disk or
        # editor would.
        lines = journal.path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["digest"] = record["digest"][::-1]
        lines[-1] = json.dumps(record, separators=(",", ":"))
        journal.path.write_text("\n".join(lines) + "\n")

        resumed = RunJournal(journal.path)
        second = execute_batch([job], workers=1, journal=resumed)
        # Not served from the tampered journal: the job genuinely re-ran,
        # and the corrupt line was quarantined exactly once.
        assert second.outcomes[0].ok and not second.outcomes[0].from_journal
        assert resumed.quarantined == 1
        resumed.completed()
        assert resumed.quarantined == 1


# ----------------------------------------------------------------------
# Trace-stream hardening (satellite b)
# ----------------------------------------------------------------------
class TestTraceHardening:
    def _cols(self, n=8):
        iclass = np.zeros(n, dtype=np.int64)
        pc = np.arange(1, n + 1, dtype=np.int64)
        addr = np.zeros(n, dtype=np.int64)
        taken = np.zeros(n, dtype=bool)
        return iclass, pc, addr, taken

    def test_negative_address_names_record(self):
        iclass, pc, addr, taken = self._cols()
        addr[5] = -64
        with pytest.raises(ValueError, match="'addr'.*record 5"):
            Trace(iclass, pc, addr, taken)

    def test_non_finite_pc_rejected(self):
        iclass, pc, addr, taken = self._cols()
        with pytest.raises(ValueError, match="non-finite"):
            Trace(iclass, pc.astype(float) * np.inf, addr, taken)

    def test_overflowing_iclass_rejected(self):
        iclass, pc, addr, taken = self._cols()
        iclass[2] = 1 << 20
        with pytest.raises(ValueError, match="'iclass'.*record 2"):
            Trace(iclass, pc, addr, taken)

    def test_unknown_instruction_class(self):
        trace = Trace(
            np.array([0, 9], dtype=np.uint8),
            np.ones(2, dtype=np.uint64),
            np.zeros(2, dtype=np.uint64),
            np.zeros(2, dtype=bool),
            "t",
        )
        with pytest.raises(ValueError, match="unknown instruction class 9 at record 1"):
            trace.validate()

    def test_memory_op_without_address(self):
        trace = Trace(
            np.array([2], dtype=np.uint8),
            np.ones(1, dtype=np.uint64),
            np.zeros(1, dtype=np.uint64),
            np.zeros(1, dtype=bool),
            "t",
        )
        with pytest.raises(ValueError, match="LOAD at record 0"):
            trace.validate()

    def test_structured_ids_must_increase(self):
        dt = np.dtype(
            [("id", np.int64), ("iclass", np.uint8), ("pc", np.uint64),
             ("addr", np.uint64), ("taken", np.bool_)]
        )
        arr = np.zeros(3, dtype=dt)
        arr["id"] = [1, 5, 5]
        with pytest.raises(ValueError, match="record 2"):
            Trace.from_structured(arr)
        arr["id"] = [1, 5, 9]
        assert len(Trace.from_structured(arr)) == 3

    def test_fuzz_generated_traces_stay_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 200))
            iclass = rng.integers(0, 6, n).astype(np.uint8)
            addr = (rng.integers(1, 1 << 30, n) << 5).astype(np.uint64)
            trace = Trace(iclass, rng.integers(4, 1 << 40, n).astype(np.uint64), addr, rng.integers(0, 2, n).astype(bool))
            assert trace.validate() is trace

    def test_fuzz_single_corruption_always_detected(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 64))
            idx = int(rng.integers(0, n))
            iclass = rng.integers(0, 6, n).astype(np.int64)
            pc = rng.integers(4, 1 << 40, n).astype(np.int64)
            addr = (rng.integers(1, 1 << 30, n) << 5).astype(np.int64)
            taken = np.zeros(n, dtype=bool)
            mode = int(rng.integers(0, 3))
            if mode == 0:
                addr[idx] = -int(rng.integers(1, 1 << 20))
            elif mode == 1:
                pc[idx] = -1
            else:
                iclass[idx] = int(rng.integers(256, 1 << 16))
            with pytest.raises(ValueError, match=f"record {idx}"):
                Trace(iclass, pc, addr, taken)


# ----------------------------------------------------------------------
# Differential oracle + golden corpus
# ----------------------------------------------------------------------
class TestDifferentialOracle:
    def test_parity_holds_under_sanitizer(self):
        report = run_parity("em3d", FilterKind.PA, n_insts=N, sanitize=True)
        assert report.ok, [str(d.key) for d in report.failures]
        assert report.worst is not None

    def test_committed_golden_corpus_replays(self):
        from repro.sanitize.differential import default_golden_dir

        directory = default_golden_dir()
        assert directory is not None, "tests/golden is missing"
        outcomes = verify_golden(directory)
        assert outcomes, "golden corpus is empty"
        bad = [f"{o.path.name}: {o.message}" for o in outcomes if not o.ok]
        assert not bad, bad

    def test_golden_corpus_round_trip(self, tmp_path):
        specs = [("em3d", "pa", "kernel")]
        (path,) = write_corpus(tmp_path, specs=specs, n_insts=3_000)
        outcomes = verify_golden(tmp_path)
        assert len(outcomes) == 1 and outcomes[0].ok

        record = json.loads(path.read_text())
        record["counters"]["cycles"] += 1
        path.write_text(json.dumps(record))
        outcome = verify_golden(tmp_path)[0]
        assert not outcome.ok and not outcome.stale
        assert any("cycles" in m for m in outcome.mismatches)

        record["model_version"] = "ancient"
        path.write_text(json.dumps(record))
        outcome = verify_golden(tmp_path)[0]
        assert outcome.stale and "regenerate" in outcome.message


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestSanitizeCLI:
    def test_run_with_sanitize_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "--workload", "fpppp", "--insts", "3000", "--sanitize"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_verify_command_parity_only(self, capsys):
        from repro.cli import main

        code = main([
            "verify", "--workload", "em3d", "--filter", "pa",
            "--insts", "3000", "--no-golden",
        ])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_command_with_golden_dir(self, tmp_path, capsys):
        from repro.cli import main

        write_corpus(tmp_path, specs=[("em3d", "none", "kernel")], n_insts=3_000)
        code = main([
            "verify", "--workload", "em3d", "--filter", "none",
            "--insts", "3000", "--golden", str(tmp_path),
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_verify_unknown_filter_is_config_error(self, capsys):
        from repro.cli import main

        code = main([
            "verify", "--workload", "em3d", "--filter", "warp",
            "--insts", "3000", "--no-golden",
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
