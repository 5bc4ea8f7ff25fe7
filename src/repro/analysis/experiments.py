"""The paper's experiment registry.

One entry per table/figure in the paper (plus the in-text experiments),
each runnable on demand and returning a structured
:class:`ExperimentResult` with the measured rows, a text figure, the
paper's reference numbers, and a reproduction verdict.  The benches in
``benchmarks/`` read one shared suite and assert on what it reports, and
the same registry regenerates ``EXPERIMENTS.md``::

    python -m repro.analysis.experiments --insts 150000 --out EXPERIMENTS.md

Results are memoised within a suite so experiments sharing simulations
(Figures 4-6 are three views of one comparison) run them once.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.figures import grouped_bars, series_lines, sparkline
from repro.analysis.metrics import arithmetic_mean, percent_change, reduction_percent
from repro.analysis.parallel import SimulationJob, default_workers, run_jobs
from repro.analysis.report import Table
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig
from repro.core.simulator import SimulationResult
from repro.workloads import get_workload, workload_names

HISTORY_SIZES = (1024, 2048, 4096, 8192, 16384)
PORT_COUNTS = (3, 4, 5)


@dataclass
class ExperimentResult:
    """Everything needed to report one paper artifact."""

    exp_id: str
    title: str
    paper_reference: str
    table: Table
    summary: Dict[str, float] = field(default_factory=dict)
    figure: Optional[str] = None
    notes: str = ""

    def render(self) -> str:
        parts = [f"[{self.exp_id}] {self.title}", "", self.table.render(), ""]
        if self.summary:
            parts.append("measured: " + ", ".join(f"{k}={v:.3g}" for k, v in self.summary.items()))
        parts.append(f"paper:    {self.paper_reference}")
        if self.notes:
            parts.append(f"notes:    {self.notes}")
        if self.figure:
            parts += ["", self.figure]
        return "\n".join(parts)


class ExperimentSuite:
    """Runs the paper's experiments at a configurable scale."""

    def __init__(
        self,
        n_insts: int = 150_000,
        warmup: Optional[int] = None,
        seed: int = 0,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.n_insts = n_insts
        self.warmup = warmup if warmup is not None else int(n_insts * 0.4)
        self.seed = seed
        self.workers = workers
        #: the on-disk result store: each job is stored as it lands, so a
        #: re-run of an interrupted suite executes only the missing jobs.
        self.cache = cache
        #: engine tier for every run in the suite; ``None`` defers to each
        #: config.  The kernel tier suits classification-level experiments
        #: (filter comparisons, table sweeps); keep IPC/port/buffer figures
        #: on the pipeline tier — see docs/architecture.md, "Engine tiers".
        self.engine = engine
        self.benches = workload_names()
        #: in-memory memo, keyed by the run's stable content hash (the same
        #: key the disk cache uses), so experiments sharing simulations run
        #: them once per suite regardless of config object identity.
        self._runs: Dict[str, SimulationResult] = {}

    # ------------------------------------------------------------------
    # Simulation plumbing (memoised)
    # ------------------------------------------------------------------
    def base_config(self, l1_kb: int = 8) -> SimulationConfig:
        builder = {8: SimulationConfig.paper_default, 32: SimulationConfig.paper_32kb, 16: SimulationConfig.paper_16kb}
        try:
            cfg = builder[l1_kb]()
        except KeyError:
            raise ValueError(f"unsupported L1 size {l1_kb}KB") from None
        return cfg.with_warmup(self.warmup)

    def _job(self, workload: str, config: SimulationConfig, software_prefetch: bool = True) -> SimulationJob:
        return SimulationJob(workload, config, self.n_insts, self.seed, software_prefetch, self.engine)

    def _ensure(self, specs: Sequence[SimulationJob]) -> None:
        """Run (in one parallel batch) every spec not already memoised."""
        fresh = [job for job in specs if job.key() not in self._runs]
        if not fresh:
            return
        results = run_jobs(fresh, workers=self.workers, cache=self.cache)
        for job, result in zip(fresh, results):
            self._runs[job.key()] = result

    def run(self, workload: str, config: SimulationConfig, software_prefetch: bool = True) -> SimulationResult:
        job = self._job(workload, config, software_prefetch)
        key = job.key()
        if key not in self._runs:
            self._ensure([job])
        return self._runs[key]

    def comparison(self, l1_kb: int = 8) -> Dict[str, Dict[FilterKind, SimulationResult]]:
        cfg = self.base_config(l1_kb)
        kinds = (FilterKind.NONE, FilterKind.PA, FilterKind.PC)
        self._ensure(
            [self._job(name, cfg.with_filter(kind=kind)) for name in self.benches for kind in kinds]
        )
        return {
            name: {kind: self.run(name, cfg.with_filter(kind=kind)) for kind in kinds}
            for name in self.benches
        }

    # ------------------------------------------------------------------
    # Experiments
    # ------------------------------------------------------------------
    def table1(self) -> ExperimentResult:
        cfg = SimulationConfig.paper_default()
        table = Table("Table 1 — system configuration", ["parameter", "value"], mean_row=False)
        for line in cfg.describe().splitlines():
            if line.startswith("  "):
                name, _, value = line.strip().partition("  ")
                table.add_row(name.strip(), [value.strip()])
            else:
                table.add_row(f"[{line.strip()}]", [""])
        return ExperimentResult(
            "T1",
            "System configuration",
            "8-wide OoO, 128 ROB / 64 LSQ, 8KB DM L1 (1cy, 3 ports), 512KB 4-way L2 (15cy), "
            "150cy memory, 64-entry prefetch queue, 4096-entry (1KB) history table",
            table,
        )

    def table2(self) -> ExperimentResult:
        cfg = self.base_config().with_prefetch(nsp=False, sdp=False, software=False)
        table = Table(
            "Table 2 — benchmark properties (prefetch off)",
            ["benchmark", "L1 miss", "L1 paper", "L2 miss", "L2 paper"],
            mean_row=False,
        )
        self._ensure([self._job(name, cfg, software_prefetch=False) for name in self.benches])
        l1_err = []
        for name in self.benches:
            r = self.run(name, cfg, software_prefetch=False)
            info = get_workload(name).info
            table.add_row(name, [r.l1_miss_rate, info.paper_l1_miss, r.l2_miss_rate, info.paper_l2_miss])
            l1_err.append(abs(r.l1_miss_rate - info.paper_l1_miss))
        return ExperimentResult(
            "T2",
            "Benchmark properties",
            "L1 miss 4.1-21.6%; L2 split into near-zero (bh/em3d/fpppp) vs 20-32% "
            "(perimeter/gap/gzip/mcf) groups",
            table,
            summary={"mean |L1 - paper|": arithmetic_mean(l1_err)},
        )

    def figure1(self) -> ExperimentResult:
        cmp8 = self.comparison(8)
        table = Table("Figure 1 — prefetch effectiveness (no filter)", ["benchmark", "good frac", "bad frac"])
        chart_rows = {}
        fracs = []
        for name in self.benches:
            t = cmp8[name][FilterKind.NONE].prefetch
            total = max(1, t.good + t.bad)
            table.add_row(name, [t.good / total, t.bad / total])
            chart_rows[name] = {"good": t.good / total, "bad": t.bad / total}
            fracs.append(t.bad / total)
        return ExperimentResult(
            "F1",
            "Effectiveness of prefetches",
            "average 48% of prefetches are bad; >50% in 4 of 10 benchmarks",
            table,
            summary={"mean bad fraction": arithmetic_mean(fracs)},
            figure=grouped_bars("good vs bad prefetch fractions", chart_rows, width=30),
        )

    def figure2(self) -> ExperimentResult:
        cmp8 = self.comparison(8)
        table = Table("Figure 2 — L1 traffic distribution", ["benchmark", "prefetch/normal ratio"])
        rows = {}
        for name in self.benches:
            r = cmp8[name][FilterKind.NONE]
            table.add_row(name, [r.prefetch_to_normal_ratio])
            rows[name] = {"pf/normal": r.prefetch_to_normal_ratio}
        values = [cmp8[n][FilterKind.NONE].prefetch_to_normal_ratio for n in self.benches]
        return ExperimentResult(
            "F2",
            "Traffic distribution of L1 cache",
            "prefetch/normal access ratio 0.29 (gzip) to 0.57 (ijpeg), mean 0.41",
            table,
            summary={"mean ratio": arithmetic_mean(values)},
            figure=grouped_bars("prefetch share of L1 traffic", rows, width=30),
        )

    def _counts_figure(self, l1_kb: int, exp_id: str, paper: str) -> ExperimentResult:
        cmp_ = self.comparison(l1_kb)
        table = Table(
            f"Figure {exp_id[1:]} — prefetch counts, {l1_kb}KB L1 (normalised to no-filter good)",
            ["benchmark", "bad none", "bad PA", "bad PC", "good PA", "good PC"],
        )
        bad_pa, bad_pc, good_pa, good_pc = [], [], [], []
        for name in self.benches:
            none = cmp_[name][FilterKind.NONE].prefetch
            pa = cmp_[name][FilterKind.PA].prefetch
            pc = cmp_[name][FilterKind.PC].prefetch
            ref = max(1, none.good)
            table.add_row(name, [none.bad / ref, pa.bad / ref, pc.bad / ref, pa.good / ref, pc.good / ref])
            bad_pa.append(reduction_percent(none.bad, pa.bad))
            bad_pc.append(reduction_percent(none.bad, pc.bad))
            good_pa.append(reduction_percent(none.good, pa.good))
            good_pc.append(reduction_percent(none.good, pc.good))
        return ExperimentResult(
            exp_id,
            f"Prefetch miss/hit counts, {l1_kb}KB D-cache",
            paper,
            table,
            summary={
                "bad reduction PA %": arithmetic_mean(bad_pa),
                "bad reduction PC %": arithmetic_mean(bad_pc),
                "good reduction PA %": arithmetic_mean(good_pa),
                "good reduction PC %": arithmetic_mean(good_pc),
            },
        )

    def figure4(self) -> ExperimentResult:
        return self._counts_figure(8, "F4", "bad -97% (PA) / -98% (PC); good -51% / -48%; bandwidth -75% / -74%")

    def figure7(self) -> ExperimentResult:
        return self._counts_figure(32, "F7", "bad -91% (PA) / -92% (PC); good only -35% / -27% (better preserved)")

    def _ratio_figure(self, l1_kb: int, exp_id: str, paper: str) -> ExperimentResult:
        cmp_ = self.comparison(l1_kb)
        table = Table(
            f"Figure {exp_id[1:]} — bad/good prefetch ratio, {l1_kb}KB L1",
            ["benchmark", "none", "PA", "PC"],
        )
        reds_pa, reds_pc = [], []
        chart = {}
        for name in self.benches:
            rn = cmp_[name][FilterKind.NONE].prefetch.bad_good_ratio
            rpa = cmp_[name][FilterKind.PA].prefetch.bad_good_ratio
            rpc = cmp_[name][FilterKind.PC].prefetch.bad_good_ratio
            table.add_row(name, [rn, rpa, rpc])
            chart[name] = {"none": rn, "PA": rpa, "PC": rpc}
            if rn not in (0.0, float("inf")):
                if rpa != float("inf"):
                    reds_pa.append(reduction_percent(rn, rpa))
                if rpc != float("inf"):
                    reds_pc.append(reduction_percent(rn, rpc))
        return ExperimentResult(
            exp_id,
            f"Bad/good prefetch ratios, {l1_kb}KB D-cache",
            paper,
            table,
            summary={
                "ratio reduction PA %": arithmetic_mean(reds_pa),
                "ratio reduction PC %": arithmetic_mean(reds_pc),
            },
            figure=grouped_bars("bad/good ratio by filter", chart, width=30),
        )

    def figure5(self) -> ExperimentResult:
        return self._ratio_figure(8, "F5", "ratio reduced 70% (PA) / 91% (PC)")

    def figure8(self) -> ExperimentResult:
        return self._ratio_figure(32, "F8", "ratio reduced 75% (PA) / 93% (PC)")

    def _ipc_figure(self, l1_kb: int, exp_id: str, paper: str) -> ExperimentResult:
        cmp_ = self.comparison(l1_kb)
        table = Table(f"Figure {exp_id[1:]} — IPC, {l1_kb}KB L1", ["benchmark", "none", "PA", "PC"])
        sp_pa, sp_pc = [], []
        chart = {}
        for name in self.benches:
            n = cmp_[name][FilterKind.NONE].ipc
            pa = cmp_[name][FilterKind.PA].ipc
            pc = cmp_[name][FilterKind.PC].ipc
            table.add_row(name, [n, pa, pc])
            chart[name] = {"none": n, "PA": pa, "PC": pc}
            sp_pa.append(percent_change(n, pa))
            sp_pc.append(percent_change(n, pc))
        return ExperimentResult(
            exp_id,
            f"IPC comparison, {l1_kb}KB D-cache",
            paper,
            table,
            summary={
                "mean speedup PA %": arithmetic_mean(sp_pa),
                "mean speedup PC %": arithmetic_mean(sp_pc),
            },
            figure=grouped_bars("IPC by filter", chart, width=30),
        )

    def figure6(self) -> ExperimentResult:
        return self._ipc_figure(8, "F6", "IPC +8.2% (PA) / +9.1% (PC); no-filter always worst")

    def figure9(self) -> ExperimentResult:
        return self._ipc_figure(32, "F9", "IPC +7.0% (PA) / +8.1% (PC); no-filter always worst")

    def history_sweep(self) -> Dict[str, Dict[int, SimulationResult]]:
        cfg = self.base_config().with_filter(kind=FilterKind.PA)
        self._ensure(
            [
                self._job(name, cfg.with_filter(table_entries=s))
                for name in self.benches
                for s in HISTORY_SIZES
            ]
        )
        return {
            name: {s: self.run(name, cfg.with_filter(table_entries=s)) for s in HISTORY_SIZES}
            for name in self.benches
        }

    def figure10(self) -> ExperimentResult:
        sweep = self.history_sweep()
        table = Table(
            "Figure 10 — good prefetches vs history size (normalised to 4K)",
            ["benchmark"] + [f"{s // 1024}K" for s in HISTORY_SIZES],
        )
        rows = {}
        for name in self.benches:
            ref = max(1, sweep[name][4096].prefetch.good)
            values = [sweep[name][s].prefetch.good / ref for s in HISTORY_SIZES]
            table.add_row(name, values)
            rows[name] = values
        fig = series_lines(
            "good prefetches vs table size", rows, [f"{s // 1024}K" for s in HISTORY_SIZES]
        )
        return ExperimentResult(
            "F10",
            "Good prefetches vs history table size",
            "longer history preserves more good prefetches; gap/gzip/mcf size-insensitive",
            table,
            figure=fig,
        )

    def figure11(self) -> ExperimentResult:
        sweep = self.history_sweep()
        table = Table(
            "Figure 11 — bad prefetches vs history size (normalised to 4K)",
            ["benchmark"] + [f"{s // 1024}K" for s in HISTORY_SIZES],
        )
        for name in self.benches:
            ref = max(1, sweep[name][4096].prefetch.bad)
            table.add_row(name, [sweep[name][s].prefetch.bad / ref for s in HISTORY_SIZES])
        return ExperimentResult(
            "F11",
            "Bad prefetches vs history table size",
            "can rise with table size (fresh entries default to allow); absolute numbers small",
            table,
        )

    def figure12(self) -> ExperimentResult:
        sweep = self.history_sweep()
        table = Table(
            "Figure 12 — IPC vs history size (PA filter)",
            ["benchmark"] + [f"{s // 1024}K" for s in HISTORY_SIZES],
        )
        per_size = {s: [] for s in HISTORY_SIZES}
        trend = {}
        for name in self.benches:
            values = [sweep[name][s].ipc for s in HISTORY_SIZES]
            table.add_row(name, values)
            trend[name] = sparkline(values)
            for s, v in zip(HISTORY_SIZES, values):
                per_size[s].append(v)
        means = {s: arithmetic_mean(v) for s, v in per_size.items()}
        return ExperimentResult(
            "F12",
            "IPC vs history table size",
            "+6% from 2K to 4K entries; <1% beyond 4K (saturation)",
            table,
            summary={f"mean IPC {s // 1024}K": m for s, m in means.items()},
            notes="trends: " + " ".join(f"{n}:{t}" for n, t in trend.items()),
        )

    def port_sweep(self) -> Dict[str, Dict[int, SimulationResult]]:
        self._ensure(
            [
                self._job(name, SimulationConfig.paper_ports(p, FilterKind.PA).with_warmup(self.warmup))
                for name in self.benches
                for p in PORT_COUNTS
            ]
        )
        return {
            name: {
                p: self.run(name, SimulationConfig.paper_ports(p, FilterKind.PA).with_warmup(self.warmup))
                for p in PORT_COUNTS
            }
            for name in self.benches
        }

    def figure13(self) -> ExperimentResult:
        sweep = self.port_sweep()
        table = Table(
            "Figure 13 — bad/good ratio vs L1 ports (PA filter)",
            ["benchmark", "3 ports", "4 ports", "5 ports"],
        )
        for name in self.benches:
            table.add_row(name, [sweep[name][p].prefetch.bad_good_ratio for p in PORT_COUNTS])
        return ExperimentResult(
            "F13",
            "Bad/good prefetch ratios vs number of L1 ports",
            "ratio drops 6% from 3 to 4 ports, 2% more from 4 to 5 (port pressure delays prefetches)",
            table,
        )

    def figure14(self) -> ExperimentResult:
        sweep = self.port_sweep()
        table = Table(
            "Figure 14 — IPC vs L1 ports (PA filter)", ["benchmark", "3 ports", "4 ports", "5 ports"]
        )
        per_port = {p: [] for p in PORT_COUNTS}
        for name in self.benches:
            values = [sweep[name][p].ipc for p in PORT_COUNTS]
            table.add_row(name, values)
            for p, v in zip(PORT_COUNTS, values):
                per_port[p].append(v)
        means = {p: arithmetic_mean(v) for p, v in per_port.items()}
        return ExperimentResult(
            "F14",
            "IPC vs number of L1 ports",
            "+4% from 3 to 4 ports, <1% from 4 to 5 (ports cost latency; >4 not worth it)",
            table,
            summary={f"mean IPC {p}p": m for p, m in means.items()},
        )

    def buffer_runs(self) -> Dict[str, Dict[Tuple[FilterKind, bool], SimulationResult]]:
        cfg = self.base_config()
        self._ensure(
            [
                self._job(name, base if not buffered else base.with_buffer())
                for name in self.benches
                for base in (cfg.with_filter(kind=FilterKind.PA), cfg.with_filter(kind=FilterKind.PC))
                for buffered in (False, True)
            ]
        )
        out = {}
        for name in self.benches:
            row = {}
            for kind in (FilterKind.PA, FilterKind.PC):
                row[(kind, False)] = self.run(name, cfg.with_filter(kind=kind))
                row[(kind, True)] = self.run(name, cfg.with_filter(kind=kind).with_buffer())
            out[name] = row
        return out

    def figure15(self) -> ExperimentResult:
        runs = self.buffer_runs()
        table = Table(
            "Figure 15 — bad/good ratio with dedicated prefetch buffer",
            ["benchmark", "PA", "PA+buf", "PC", "PC+buf"],
        )
        for name in self.benches:
            table.add_row(
                name,
                [
                    runs[name][(FilterKind.PA, False)].prefetch.bad_good_ratio,
                    runs[name][(FilterKind.PA, True)].prefetch.bad_good_ratio,
                    runs[name][(FilterKind.PC, False)].prefetch.bad_good_ratio,
                    runs[name][(FilterKind.PC, True)].prefetch.bad_good_ratio,
                ],
            )
        return ExperimentResult(
            "F15",
            "Bad/good ratios with a dedicated prefetch buffer",
            "the 16-entry buffer degrades the filters' effectiveness in most programs",
            table,
        )

    def figure16(self) -> ExperimentResult:
        runs = self.buffer_runs()
        table = Table(
            "Figure 16 — IPC with dedicated prefetch buffer",
            ["benchmark", "PA", "PA+buf", "PC", "PC+buf"],
        )
        deltas = []
        for name in self.benches:
            pa = runs[name][(FilterKind.PA, False)].ipc
            pab = runs[name][(FilterKind.PA, True)].ipc
            table.add_row(
                name,
                [pa, pab, runs[name][(FilterKind.PC, False)].ipc, runs[name][(FilterKind.PC, True)].ipc],
            )
            deltas.append(percent_change(pa, pab))
        return ExperimentResult(
            "F16",
            "IPC with a dedicated prefetch buffer",
            "adding the buffer loses 9% (PA) / 10% (PC) IPC versus the filters alone",
            table,
            summary={"mean IPC change from buffer (PA) %": arithmetic_mean(deltas)},
        )

    def section3_oracle(self) -> ExperimentResult:
        cmp8 = self.comparison(8)
        cfg = self.base_config().with_filter(kind=FilterKind.ORACLE)
        self._ensure([self._job(name, cfg) for name in self.benches])
        table = Table(
            "Section 3 — oracle elimination of bad prefetches",
            ["benchmark", "IPC none", "IPC oracle", "bad red %", "good kept %"],
        )
        bad_reds = []
        for name in self.benches:
            none = cmp8[name][FilterKind.NONE]
            orc = self.run(name, cfg)
            bad_red = reduction_percent(none.prefetch.bad, orc.prefetch.bad)
            good_kept = 100 - reduction_percent(none.prefetch.good, orc.prefetch.good)
            table.add_row(name, [none.ipc, orc.ipc, bad_red, good_kept])
            bad_reds.append(bad_red)
        return ExperimentResult(
            "S3",
            "Oracle (artificial) elimination of bad prefetches",
            "motivates the filter: eliminating bad prefetches recovers the pollution loss",
            table,
            summary={"mean bad reduction %": arithmetic_mean(bad_reds)},
        )

    def section521_prefetchers(self) -> ExperimentResult:
        table = Table(
            "Section 5.2.1 — per-prefetcher filtering (PA)",
            ["machine", "accuracy none", "bad red %", "good red %"],
            mean_row=False,
        )
        summary = {}
        scenarios = (("NSP", dict(sdp=False, software=False)), ("SDP", dict(nsp=False, software=False)))
        self._ensure(
            [
                self._job(name, cfg)
                for _, overrides in scenarios
                for base in (self.base_config().with_prefetch(**overrides),)
                for cfg in (base, base.with_filter(kind=FilterKind.PA))
                for name in self.benches
            ]
        )
        for label, overrides in scenarios:
            cfg = self.base_config().with_prefetch(**overrides)
            accs, bad_reds, good_reds = [], [], []
            for name in self.benches:
                none = self.run(name, cfg).prefetch
                filt = self.run(name, cfg.with_filter(kind=FilterKind.PA)).prefetch
                if none.classified:
                    accs.append(none.accuracy)
                bad_reds.append(reduction_percent(none.bad, filt.bad))
                good_reds.append(reduction_percent(none.good, filt.good))
            row = [arithmetic_mean(accs), arithmetic_mean(bad_reds), arithmetic_mean(good_reds)]
            table.add_row(label, row)
            summary[f"{label} accuracy"] = row[0]
        return ExperimentResult(
            "S1",
            "Filtering NSP and SDP separately",
            "NSP good/bad 1.8, filter -97.5% bad / -48.1% good; SDP good/bad 11.7, "
            "filter -68.3% bad / -61.9% good (accurate prefetchers filter worse)",
            table,
            summary=summary,
        )

    def section521_cache_vs_table(self) -> ExperimentResult:
        cmp8 = self.comparison(8)
        cfg16 = self.base_config(16)
        self._ensure([self._job(name, cfg16) for name in self.benches])
        table = Table(
            "Section 5.2.1 — 1KB history table vs 16KB L1",
            ["benchmark", "8KB none", "8KB+PA", "16KB none"],
        )
        fgain, cgain = [], []
        for name in self.benches:
            none = cmp8[name][FilterKind.NONE].ipc
            pa = cmp8[name][FilterKind.PA].ipc
            big = self.run(name, cfg16).ipc
            table.add_row(name, [none, pa, big])
            fgain.append(percent_change(none, pa))
            cgain.append(percent_change(none, big))
        return ExperimentResult(
            "S2",
            "Adding a 1KB history table vs doubling the L1",
            "16KB L1 gains ~20%; the 1KB table is the more area-efficient option",
            table,
            summary={
                "mean gain +1KB table %": arithmetic_mean(fgain),
                "mean gain +8KB cache %": arithmetic_mean(cgain),
            },
        )

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def registry(self) -> Dict[str, Callable[[], ExperimentResult]]:
        return {
            "t1": self.table1,
            "t2": self.table2,
            "f1": self.figure1,
            "f2": self.figure2,
            "f4": self.figure4,
            "f5": self.figure5,
            "f6": self.figure6,
            "f7": self.figure7,
            "f8": self.figure8,
            "f9": self.figure9,
            "f10": self.figure10,
            "f11": self.figure11,
            "f12": self.figure12,
            "f13": self.figure13,
            "f14": self.figure14,
            "f15": self.figure15,
            "f16": self.figure16,
            "s1": self.section521_prefetchers,
            "s2": self.section521_cache_vs_table,
            "s3": self.section3_oracle,
        }

    def experiment(self, exp_id: str) -> Callable[[], ExperimentResult]:
        """The registry entry for ``exp_id``, matched case-insensitively."""
        try:
            return self.registry()[exp_id.lower()]
        except KeyError:
            raise ValueError(f"unknown experiment {exp_id!r}; known: {sorted(self.registry())}") from None

    def run_experiment(self, exp_id: str) -> ExperimentResult:
        return self.experiment(exp_id)()


#: Qualitative reproduction verdicts, stable across scales/seeds (they
#: describe shapes the benchmark suite asserts).  Kept here so regenerating
#: the report preserves the analysis alongside the fresh numbers.
_VERDICTS = [
    ("T1", "reproduced exactly", "all Table 1 parameters are the config defaults"),
    ("T2", "reproduced", "mean |L1 miss - paper| ≈ 0.01; both L2 groups (near-zero vs capacity-bound) correct; "
     "em3d is the L1 outlier in both columns"),
    ("F1", "reproduced", "roughly half of unfiltered prefetches are bad; pointer benchmarks "
     "(perimeter/gcc/gap/mcf ≈ 0.9) pollute far more than streams (ijpeg/fpppp ≈ 0.1-0.3)"),
    ("F2", "shape reproduced, magnitude lower", "prefetch traffic is a visible share of L1 traffic "
     "(mean ≈ 0.17 vs paper 0.41); em3d reaches the paper's band (0.57). Shorter traces + "
     "calibrated miss rates generate fewer triggers than 300M-instruction runs"),
    ("F4", "reproduced", "filters remove the large majority of bad prefetches while losing a "
     "substantial minority of good ones — the paper's central trade-off"),
    ("F5", "reproduced", "bad/good ratio falls steeply under both filters for 9-10 of 10 benchmarks"),
    ("F6", "partially reproduced", "mean IPC improves with PA filtering and em3d gains >50%; the paper's "
     "+8-9% mean is not reached because one benchmark (gzip) diverges — see Known divergences"),
    ("F7", "reproduced (softer)", "bad prefetches fall much harder than good ones at 32KB; good "
     "prefetches are preserved at least as well as at 8KB, as the paper argues"),
    ("F8", "reproduced (softer)", "ratio reduction positive; magnitude below the paper's 75% because the "
     "32KB cache evicts less, giving the filter less feedback at this scale"),
    ("F9", "reproduced", "filters at or above the no-filter baseline for most benchmarks at 32KB"),
    ("F10", "reproduced", "longer tables preserve at least as many good prefetches; several benchmarks "
     "are size-insensitive, as in the paper"),
    ("F11", "reproduced", "filtered bad counts stay far below the unfiltered baseline at every size"),
    ("F12", "reproduced", "IPC saturates at the paper's 4096-entry design point (<5% change beyond)"),
    ("F13", "reproduced", "4→5 ports changes the bad/good ratio less than 3→4 (diminishing returns)"),
    ("F14", "reproduced", "port returns diminish and are taxed by added latency, matching the paper's "
     "conclusion that >4 ports are not worth the area"),
    ("F15", "reproduced", "the 16-entry buffer shifts classification outcomes and does not improve the filters"),
    ("F16", "reproduced", "adding the buffer is not a win on average (paper: -9/-10%)"),
    ("S1", "partially reproduced", "the filter removes the majority of NSP's bad prefetches and helps NSP "
     "more than SDP (the paper's accuracy-vs-filterability relation); SDP's large accuracy advantage "
     "(good/bad 11.7 vs 1.8) is muted at this trace scale — its confirmation gate only keeps it on par"),
    ("S2", "reproduced", "doubling the L1 helps more in absolute IPC, but the 1KB table achieves a "
     "nonnegative gain at 1/8th the storage — the paper's area-efficiency argument"),
    ("S3", "reproduced", "the oracle removes most bad prefetches while keeping a better good/bad "
     "trade-off than any realisable filter"),
]

_DIVERGENCES = """\
## Known divergences

* **gzip under filtering (affects F6/F9 means).**  In our synthetic gzip the
  sequential input stream dominates and NSP hides nearly every memory-level
  miss on it, so unfiltered prefetching *doubles* gzip's IPC; both filters
  then remove enough of those good prefetches to regress it.  Two substrate
  differences drive this: (a) the synthetic trace concentrates the stream in
  a handful of static PCs, so the PC filter's 2-bit entries — which stop
  receiving feedback once they latch reject — absorb into the reject state
  and never recover (in the paper's traces thousands of static instructions
  alias into the 4096-entry table and keep refreshing entries); (b) the
  paper's gzip gains less from prefetching to begin with (it reports the
  lowest prefetch-traffic ratio, 0.29).  Excluding gzip, our mean PA/PC
  speedups land in the paper's direction on every remaining benchmark.
* **Prefetch traffic magnitude (F2).**  Our mean prefetch/normal ratio is
  ~0.17 vs the paper's 0.41 even with degree-2 prefetching; matching the
  paper's Table 2 miss rates on 10^5-instruction traces necessarily
  generates fewer prefetch triggers than 3×10^8-instruction runs whose
  pollution feeds back into more misses.
* **32KB magnitudes (F7/F8).**  Directionally correct; reductions are
  smaller than the paper's because a 32KB L1 on short traces evicts (and
  therefore classifies) far fewer prefetches.
"""


def markdown_report(results: Sequence[ExperimentResult], suite: ExperimentSuite) -> str:
    """Render the EXPERIMENTS.md document from a full run."""
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of every table and figure in Zhuang & Lee (ICPP 2003).",
        f"Scale: {suite.n_insts} instructions per run, {suite.warmup} warmup, seed {suite.seed} "
        "(the paper: 300M instructions on SimpleScalar/Alpha).  Absolute numbers",
        "differ at this scale; the asserted reproduction target is the *shape* —",
        "who wins, trend directions, saturation points.  Regenerate with:",
        "",
        "```",
        f"python -m repro.analysis.experiments --insts {suite.n_insts} --seed {suite.seed} --out EXPERIMENTS.md",
        "```",
        "",
        "## Reproduction summary",
        "",
        "| artifact | verdict | evidence |",
        "|---|---|---|",
    ]
    ran = {r.exp_id for r in results}
    for exp_id, verdict, evidence in _VERDICTS:
        if exp_id in ran:
            lines.append(f"| {exp_id} | {verdict} | {evidence} |")
    lines += ["", _DIVERGENCES, ""]
    for r in results:
        lines.append(f"## {r.exp_id} — {r.title}")
        lines.append("")
        lines.append(f"**Paper:** {r.paper_reference}")
        lines.append("")
        if r.summary:
            lines.append("**Measured:** " + ", ".join(f"{k} = {v:.3g}" for k, v in r.summary.items()))
            lines.append("")
        lines.append("```")
        lines.append(r.table.render())
        lines.append("```")
        if r.notes:
            lines.append("")
            lines.append(r.notes)
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run the paper's experiments")
    parser.add_argument("--insts", type=int, default=150_000)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ids", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--out", help="write a markdown report to this file")
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel simulation processes (0 = one per CPU)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the on-disk result cache"
    )
    args = parser.parse_args(argv)
    if args.insts < 1:
        parser.error(f"--insts must be >= 1, got {args.insts}")
    if args.warmup is not None and args.warmup < 0:
        parser.error(f"--warmup must be >= 0, got {args.warmup}")
    if args.workers < 0:
        parser.error(f"--workers must be >= 0 (0 = one per CPU), got {args.workers}")

    workers = args.workers if args.workers > 0 else default_workers()
    cache = None if args.no_cache else ResultCache()
    suite = ExperimentSuite(args.insts, args.warmup, args.seed, workers=workers, cache=cache)
    try:
        # Every id resolves before the first job runs.
        todo = [suite.experiment(exp_id) for exp_id in args.ids or suite.registry()]
    except ValueError as exc:
        parser.error(str(exc))
    results = [run() for run in todo]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown_report(results, suite))
        print(f"wrote {args.out}")
    else:
        for r in results:
            print(r.render())
            print("\n" + "=" * 72 + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
