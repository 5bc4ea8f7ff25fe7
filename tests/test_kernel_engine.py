"""Kernel engine: cc-vs-interp bit-identity, legs, batch plumbing.

The kernel engine has two execution legs over one kernel source: the
Python functions in ``repro.core.kernels`` (``interp``, the readable
reference) and their C port (``cc``, the fast path).  The port is not an
independent model, so its contract is strict: every counter the golden
corpus locks must match the ``interp`` leg **bit-for-bit** on any
supported configuration, paper-default contention included; only timing
and the recorded provenance id may differ.  The engine's tolerance-banded
contract against the pipeline lives in ``tests/test_relaxed_parity.py``.
"""

import pickle
import signal
from dataclasses import replace

import numpy as np
import pytest

import repro.core.kernel as kernel_mod
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy, execute_batch
from repro.analysis.sweep import run_workload
from repro.cli import main as cli_main
from repro.common.config import CacheConfig, FilterKind, SimulationConfig
from repro.common.faults import inject_faults
from repro.common.hashing import table_index
from repro.core import _ckernel
from repro.core import kernels as krn
from repro.core.classifier import PrefetchClassifier
from repro.core.kernel import (
    K_NAMES,
    MODE_CC,
    MODE_ENV,
    MODE_IDS,
    MODE_INTERP,
    KernelEngine,
    select_mode,
)
from repro.core.pipeline import OoOPipeline
from repro.core.simulator import Simulator
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter
from repro.mem.hierarchy import MemoryHierarchy
from repro.sanitize.differential import (
    golden_counters,
    relaxed_config,
    run_kernel_leg,
    run_kernel_parity,
)
from repro.trace.stream import Trace
from repro.workloads import cached_trace, workload_names

N = 25_000
FILTERS = (FilterKind.NONE, FilterKind.PA, FilterKind.PC)

#: Small backoffs keep the chaos test fast without changing semantics.
FAST = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _requires_cc():
    if _ckernel.rejected():
        pytest.fail(_ckernel.LOAD_ERROR)
    if _ckernel.load() is None:
        pytest.skip(f"no C compiler builds the cc leg: {_ckernel.LOAD_ERROR}")


def _pair(workload, cfg, n=N, seed=0):
    """(interp, cc) runs of one config, each leg pinned explicitly."""
    _requires_cc()
    interp = run_kernel_leg(workload, cfg, n, seed, MODE_INTERP)
    cc = run_kernel_leg(workload, cfg, n, seed, MODE_CC)
    return interp, cc


def _assert_identical(label, a, b):
    """The leg contract: the full golden counter vector, exactly."""
    expected, got = golden_counters(a), golden_counters(b)
    diffs = {key: (expected[key], got[key]) for key in expected if expected[key] != got[key]}
    assert not diffs, f"{label}: legs differ on {diffs}"
    assert a.prefetch == b.prefetch
    assert a.per_source == b.per_source


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A cc loader that has not probed yet, over an empty binary cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_ckernel, "_TRIED", False)
    monkeypatch.setattr(_ckernel, "_FN", None)
    monkeypatch.setattr(_ckernel, "LOAD_ERROR", "")


@pytest.fixture
def fresh_warnings():
    """Reset the process-wide warn-once set so a test can observe it."""
    saved = set(kernel_mod._warned)
    kernel_mod._warned.clear()
    yield
    kernel_mod._warned.clear()
    kernel_mod._warned.update(saved)


class TestBitIdentity:
    """interp vs cc on the paper-default machine: zero tolerance."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("kind", FILTERS, ids=lambda k: k.value)
    def test_all_workloads_all_filters(self, workload, kind):
        cfg = SimulationConfig.paper_default(kind)
        interp, cc = _pair(workload, cfg)
        _assert_identical(f"{workload}/{kind.value}", interp, cc)

    def test_warmup_discards_the_same_prefix(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
        interp, cc = _pair("mcf", cfg)
        _assert_identical("warmup", interp, cc)

    def test_32kb_machine(self):
        cfg = SimulationConfig.paper_32kb(FilterKind.PC)
        interp, cc = _pair("gcc", cfg)
        _assert_identical("32kb", interp, cc)

    def test_oracle_report_agrees(self):
        _requires_cc()
        report = run_kernel_parity("em3d", FilterKind.PA, n_insts=12_000)
        assert report.ok and not report.skipped, report.mismatches

    def test_oracle_reports_a_skip_without_cc(self, monkeypatch, fresh_loader):
        monkeypatch.setattr(_ckernel, "_find_compiler", lambda: None)
        report = run_kernel_parity("em3d", FilterKind.PA, n_insts=4_000)
        assert report.ok and "no C compiler found" in report.skipped

    def test_a_rejected_c_source_fails_the_oracle(
        self, monkeypatch, fresh_loader, fresh_warnings, capsys
    ):
        if _ckernel._find_compiler() is None:
            pytest.skip("no C compiler here to reject the source")
        broken = _ckernel.c_source() + "int broken(void) { return undeclared; }\n"
        monkeypatch.setattr(_ckernel, "c_source", lambda: broken)
        report = run_kernel_parity("em3d", FilterKind.PA, n_insts=4_000)
        assert not report.ok and not report.skipped
        assert report.mismatches[0].startswith(_ckernel.COMPILE_FAILED)
        with pytest.warns(RuntimeWarning, match="cc leg is unavailable"):
            rc = cli_main(["verify", "--workload", "em3d", "--filter", "pa",
                           "--insts", "4000", "--no-golden"])
        assert rc != 0
        assert "FAIL" in capsys.readouterr().out

    def test_pinned_leg_overrides_env(self, monkeypatch):
        _requires_cc()
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        cfg = SimulationConfig.paper_default(FilterKind.NONE)
        r = run_kernel_leg("bh", cfg, 6_000, 0, MODE_CC)
        assert r.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[MODE_CC]

    def test_deterministic(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        a = run_workload("wave5", cfg, N, 0, "kernel")
        b = run_workload("wave5", cfg, N, 0, "kernel")
        assert a.cycles == b.cycles
        assert a.prefetch == b.prefetch
        assert a.stats.flat() == b.stats.flat()


class TestPropertySweep:
    """Seeded random configurations: identity must hold off the beaten
    path (odd geometries, table shapes, prefetcher subsets), not just on
    the two paper machines."""

    @staticmethod
    def _random_config(rng):
        l1_kb = int(rng.choice([4, 8, 16]))
        l1_assoc = int(rng.choice([1, 2, 4]))
        l2_kb = int(rng.choice([128, 256, 512]))
        l2_assoc = int(rng.choice([2, 4, 8]))
        bits = int(rng.integers(1, 4))
        top = (1 << bits) - 1
        kind = FilterKind(str(rng.choice(["none", "pa", "pc"])))
        cfg = (
            SimulationConfig.paper_default(kind)
            .with_l1(
                CacheConfig(
                    size_bytes=l1_kb * 1024, line_bytes=32, assoc=l1_assoc,
                    latency=1, ports=3,
                )
            )
            .with_filter(
                table_entries=int(rng.choice([256, 1024, 4096])),
                counter_bits=bits,
                initial_value=int(rng.integers(0, top + 1)),
                threshold=int(rng.integers(1, top + 1)),
            )
            .with_prefetch(
                nsp=bool(rng.integers(2)),
                sdp=bool(rng.integers(2)),
                degree=int(rng.integers(1, 5)),
            )
        )
        from dataclasses import replace

        l2 = CacheConfig(
            size_bytes=l2_kb * 1024, line_bytes=32, assoc=l2_assoc, latency=15, ports=1
        )
        return replace(cfg, hierarchy=replace(cfg.hierarchy, l2=l2)).validate()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_config_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        cfg = self._random_config(rng)
        workload = str(rng.choice(["em3d", "gzip", "perimeter", "gap"]))
        interp, cc = _pair(workload, cfg, n=10_000, seed=seed)
        _assert_identical(f"sweep-{seed}/{workload}", interp, cc)


class TestExecutionLegs:
    """cc/interp share one kernel source; counters never differ."""

    def test_interp_leg_matches_default(self, monkeypatch):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        default = run_workload("em3d", cfg, 12_000, 0, "kernel")
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        interp = run_workload("em3d", cfg, 12_000, 0, "kernel")
        _assert_identical("interp-vs-default", default, interp)

    def test_cc_leg_matches_interp(self, monkeypatch):
        _requires_cc()
        cfg = SimulationConfig.paper_default(FilterKind.PC)
        monkeypatch.setenv(MODE_ENV, MODE_CC)
        cc = run_workload("mcf", cfg, 12_000, 0, "kernel")
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        interp = run_workload("mcf", cfg, 12_000, 0, "kernel")
        _assert_identical("cc-vs-interp", cc, interp)
        # Provenance differs even though counters do not.
        assert cc.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[MODE_CC]
        assert interp.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[MODE_INTERP]

    def test_mode_is_recorded_in_result_payload(self):
        cfg = SimulationConfig.paper_default(FilterKind.NONE)
        r = run_workload("bh", cfg, 6_000, 0, "kernel")
        assert r.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[select_mode()]

    def test_unknown_mode_env_is_rejected(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "warp-drive")
        with pytest.raises(ValueError, match="REPRO_KERNEL_MODE"):
            select_mode()

    def test_removed_jit_mode_is_rejected(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "jit")
        with pytest.raises(ValueError, match="choose from cc, interp"):
            select_mode()

    def test_default_selection_is_silent_with_cc(self, monkeypatch, fresh_warnings):
        _requires_cc()
        monkeypatch.delenv(MODE_ENV, raising=False)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert select_mode() == MODE_CC

    def test_missing_cc_degrades_with_one_warning(self, monkeypatch, fresh_warnings):
        # Simulate a machine without a C compiler, whatever this one has.
        monkeypatch.delenv(MODE_ENV, raising=False)
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        with pytest.warns(RuntimeWarning, match="kernel engine"):
            mode = select_mode()
        assert mode == MODE_INTERP
        # Warn-once: the second selection is silent.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert select_mode() == mode

    def test_explicit_available_mode_is_silent(self, monkeypatch, fresh_warnings):
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert select_mode() == MODE_INTERP

    def test_unavailable_requested_mode_falls_back(self, monkeypatch, fresh_warnings):
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        monkeypatch.setenv(MODE_ENV, MODE_CC)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            mode = select_mode()
        assert mode == MODE_INTERP


class TestEngineSelection:
    def test_make_engine_builds_kernel(self):
        cfg = SimulationConfig.paper_default()
        sim = Simulator(cfg, engine="kernel")
        assert isinstance(sim.engine, KernelEngine)

    def test_config_engine_field_selects_kernel(self):
        cfg = SimulationConfig.paper_default().with_engine("kernel")
        assert cfg.validate() is cfg
        assert isinstance(Simulator(cfg).engine, KernelEngine)
        assert run_workload("em3d", cfg, 5_000).instructions > 0

    def test_cli_engine_flag(self, capsys):
        rc = cli_main(
            ["run", "--workload", "em3d", "--engine", "kernel", "--insts", "4000"]
        )
        assert rc == 0
        assert "workload" in capsys.readouterr().out

    def test_cli_bench_rejects_unknown_engine(self, capsys):
        rc = cli_main(["bench", "--engines", "pipeline,warp-drive"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_stride_config_is_rejected(self):
        cfg = SimulationConfig.paper_default().with_prefetch(stride=True)
        with pytest.raises(ValueError, match="stride"):
            run_workload("em3d", cfg, 5_000, engine="kernel")

    def test_no_write_allocate_l1_is_rejected(self):
        # The pipeline writes around such an L1; the kernel has no
        # write-around path, so it must refuse rather than run it as
        # write-allocate.
        base = SimulationConfig.paper_default(FilterKind.PA)
        cfg = base.with_l1(replace(base.hierarchy.l1, write_allocate=False))
        with pytest.raises(ValueError, match="write-allocate"):
            run_workload("mcf", cfg, 5_000, engine="kernel")

    def test_unsupported_config_fails_at_construction(self):
        cfg = SimulationConfig.paper_default().with_prefetch(stride=True)
        with pytest.raises(ValueError, match="stride"):
            Simulator(cfg, engine="kernel")

    def test_filter_object_is_rejected(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        with pytest.raises(ValueError, match="inlines only the null/PA/PC filters, not PAFilter"):
            Simulator(cfg, filter_=PAFilter(), engine="kernel")

    def test_kernel_job_builds_no_object_model(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a kernel job built a {type(self).__name__}")

        model = (OoOPipeline, MemoryHierarchy, PrefetchClassifier, NullFilter, PAFilter, PCFilter)
        for cls in model:
            monkeypatch.setattr(cls, "__init__", refuse)
        for kind in FILTERS:
            cfg = SimulationConfig.paper_default(kind).with_warmup(1_000)
            assert run_workload("em3d", cfg, 3_000, engine="kernel").instructions > 0

    def test_prefetch_buffer_config_is_rejected(self):
        cfg = SimulationConfig.paper_default().with_buffer(True)
        with pytest.raises(ValueError, match="buffer"):
            run_workload("em3d", cfg, 5_000, engine="kernel")

    def test_unsupported_filter_is_rejected(self):
        cfg = SimulationConfig.paper_default(FilterKind.ADAPTIVE)
        with pytest.raises(ValueError, match="filter"):
            run_workload("em3d", cfg, 5_000, engine="kernel")

    def test_experiment_suite_engine_tier(self):
        from repro.analysis.experiments import ExperimentSuite

        suite = ExperimentSuite(6_000, seed=0, engine="kernel")
        job = suite._job("em3d", suite.base_config())
        assert job.engine_name == "kernel"
        assert suite.run("em3d", suite.base_config()).instructions > 0


class TestNameTable:
    """``K_NAMES`` spells each slot the way the pipeline's models do.

    The payload fixture cannot catch a misspelt name for a slot that
    never fires in its cases, so this grid shrinks the L2 until L2
    evictions and memory writebacks fire too.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        out = []
        for workload in ("em3d", "mcf", "gzip"):
            trace = cached_trace(workload, 12_000, 0)
            for kind in FILTERS:
                base = relaxed_config(SimulationConfig.paper_default(kind))
                l2 = replace(base.hierarchy.l2, size_bytes=16 * 1024, assoc=4)
                cfg = replace(base, hierarchy=replace(base.hierarchy, l2=l2))
                out.append(tuple(
                    list(Simulator(cfg, engine=engine).run(trace).stats.flat())
                    for engine in ("kernel", "pipeline")
                ))
        return out

    def test_every_kernel_key_is_a_pipeline_key(self, runs):
        pipeline_keys = {key for _, keys in runs for key in keys}
        kernel_keys = {key for keys, _ in runs for key in keys}
        assert kernel_keys - {"pipeline.kernel_mode_id"} <= pipeline_keys

    def test_the_grid_fires_every_slot(self, runs):
        kernel_keys = {key for keys, _ in runs for key in keys}
        assert set(K_NAMES) <= kernel_keys

    def test_groups_are_listed_in_the_pipeline_order(self, runs):
        def groups(keys):
            return list(dict.fromkeys(key.rpartition(".")[0] for key in keys))

        for kernel_keys, pipeline_keys in runs:
            ours = groups(kernel_keys)
            assert ours == [g for g in groups(pipeline_keys) if g in ours]


class TestBatchExecution:
    """RL002: kernel jobs cross the process boundary as plain data."""

    @staticmethod
    def _jobs(n):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(1_000)
        return [SimulationJob("em3d", cfg, 3_000, seed, engine="kernel") for seed in range(n)]

    def test_jobs_are_picklable_and_pool_matches_serial(self):
        jobs = self._jobs(3)
        for job in jobs:
            assert pickle.loads(pickle.dumps(job)) == job
        serial = run_jobs(jobs, workers=1)
        for r in serial:
            assert pickle.loads(pickle.dumps(r)).prefetch == r.prefetch
        rerun = run_jobs(jobs, workers=1)
        for a, b in zip(serial, rerun):
            assert a.prefetch == b.prefetch and a.cycles == b.cycles

    def test_execute_batch_resumes_after_fault(self, tmp_path):
        jobs = self._jobs(3)
        clean = run_jobs(jobs, workers=1)
        journal = RunJournal(tmp_path / "kernel.jsonl")
        with inject_faults("raise@worker:match=|seed=1|"):
            report = execute_batch(
                jobs, workers=1, policy=RetryPolicy(max_attempts=2, **FAST), journal=journal
            )
        assert [o.ok for o in report.outcomes] == [True, False, True]
        # Resume (fault gone): survivors come from the journal, only the
        # victim executes, and the batch converges on the clean results.
        resumed = execute_batch(
            jobs, workers=1, journal=RunJournal(tmp_path / "kernel.jsonl")
        )
        assert all(o.ok for o in resumed.outcomes)
        assert sum(1 for o in resumed.outcomes if o.from_journal) == 2
        for a, b in zip(clean, resumed.results):
            assert a.prefetch == b.prefetch
            assert a.cycles == b.cycles
            assert a.stats.flat() == b.stats.flat()


class TestVerifyCli:
    def test_verify_includes_kernel_oracle(self, capsys):
        rc = cli_main(
            ["verify", "--workload", "em3d", "--filter", "pa", "--no-golden"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "kernel em3d/pa" in out
        assert ("cc bit-identical to interp" if _ckernel.load() else "skip") in out


def test_cc_is_materially_faster_than_interp():
    """Guard the perf point of the cc leg: the full bench is
    ``repro-sim bench --engines``; here a 5x floor over the interp leg
    (about 30x on a typical x86 host at this size) catches an accidental
    fall-back to Python execution while staying robust to CI timer
    noise."""
    import time

    from repro.workloads import cached_trace

    _requires_cc()
    cfg = SimulationConfig.paper_default(FilterKind.PA)
    n = 40_000
    cached_trace("em3d", n, 0)

    def best(mode):
        best_t = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_kernel_leg("em3d", cfg, n, 0, mode)
            best_t = min(best_t, time.perf_counter() - t0)
        return best_t

    assert best(MODE_INTERP) / best(MODE_CC) > 5.0


@pytest.fixture
def alarm():
    """End the process if the test runs two minutes.  A fold that shifts a
    negative key as a signed value never reaches zero, and no Python
    handler could interrupt the cc leg's native loop, so the alarm keeps
    its default action."""
    previous = signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entries", [1, 256, 4096])
def test_kernel_hash_is_the_pipeline_hash(entries, alarm):
    """The kernel's history-table index equals the one the pipeline's
    table computes, also for keys with bit 63 set, which reach the kernel
    as negative int64 values (``mpc`` is an int64 cast of the PCs)."""
    keys = np.random.default_rng(7).integers(0, 1 << 64, size=4_096, dtype=np.uint64)
    keys[:512] |= np.uint64(1 << 63)
    bits = entries.bit_length() - 1
    for key, signed in zip(keys.tolist(), keys.astype(np.int64).tolist()):
        assert krn.table_hash(signed, bits) == table_index(key, entries, "fold_xor")


@pytest.mark.parametrize("kind", (FilterKind.PA, FilterKind.PC), ids=lambda k: k.value)
def test_pcs_with_bit_63_set_run_on_both_legs(kind, alarm):
    """A PC at or above 2**63 is a legal trace PC and a negative ``mpc``
    entry; the PC filter hashes it on both legs."""
    _requires_cc()
    base = cached_trace("em3d", 6_000, 0)
    trace = Trace(base.iclass, base.pc | np.uint64(1 << 63), base.addr, base.taken, "em3d-hi")

    def run(mode):
        sim = Simulator(SimulationConfig.paper_default(kind), engine="kernel")
        sim.engine.mode = mode
        return sim.run(trace)

    _assert_identical(f"bit-63 PCs/{kind.value}", run(MODE_INTERP), run(MODE_CC))


def test_flat_cache_allocation_layout():
    """The array-state layout contract ``KernelState`` builds on."""
    from repro.mem.geometry import allocate_flat_cache

    cfg = CacheConfig(size_bytes=8 * 1024, line_bytes=32, assoc=4)
    arrays = allocate_flat_cache(cfg, flags=("dirty", "pib"), extra=("fid",))
    n = cfg.num_sets * cfg.ways
    assert arrays["tag"].dtype == np.int64 and arrays["tag"].shape == (n,)
    assert (arrays["tag"] == -1).all()
    assert arrays["stamp"].dtype == np.int64 and not arrays["stamp"].any()
    assert arrays["dirty"].dtype == np.uint8 and arrays["pib"].dtype == np.uint8
    assert arrays["fid"].dtype == np.int64
