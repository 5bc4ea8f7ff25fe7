"""Tests for the Simulator facade, filter factory, and SimulationResult."""

import pytest

from repro.common.config import FilterKind, SimulationConfig
from repro.core.simulator import SimulationResult, Simulator, build_filter, run_simulation
from repro.common.stats import Stats
from repro.filters.adaptive import AdaptiveFilter
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter


class TestBuildFilter:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (FilterKind.NONE, NullFilter),
            (FilterKind.PA, PAFilter),
            (FilterKind.PC, PCFilter),
            (FilterKind.ADAPTIVE, AdaptiveFilter),
        ],
    )
    def test_dynamic_kinds(self, kind, cls):
        cfg = SimulationConfig.paper_default(kind)
        assert isinstance(build_filter(cfg, Stats()), cls)

    @pytest.mark.parametrize("kind", [FilterKind.STATIC, FilterKind.ORACLE])
    def test_two_pass_kinds_rejected(self, kind):
        cfg = SimulationConfig.paper_default(kind)
        with pytest.raises(ValueError):
            build_filter(cfg, Stats())

    def test_table_geometry_propagated(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_filter(table_entries=1024)
        f = build_filter(cfg, Stats())
        assert f.table.entries == 1024


class TestSimulatorRun:
    def test_result_fields(self, em3d_trace, small_config):
        r = run_simulation(small_config, em3d_trace)
        assert isinstance(r, SimulationResult)
        assert r.trace_name == "em3d"
        assert r.filter_name == "none"
        assert r.instructions == len(em3d_trace)
        assert r.cycles > 0
        assert 0 < r.ipc < small_config.processor.issue_width
        assert 0 <= r.l1_miss_rate <= 1
        assert 0 <= r.l2_miss_rate <= 1

    def test_custom_filter_instance(self, em3d_trace, small_config):
        f = PAFilter(entries=64)
        r = run_simulation(small_config, em3d_trace, filter_=f)
        assert r.filter_name == "pa"

    def test_fresh_state_per_simulator(self, em3d_trace, small_config):
        a = Simulator(small_config).run(em3d_trace)
        b = Simulator(small_config).run(em3d_trace)
        assert a.cycles == b.cycles

    def test_traffic_split_consistency(self, ijpeg_trace, small_config):
        r = run_simulation(small_config, ijpeg_trace)
        assert r.l1_prefetch_fills == r.prefetch.issued
        assert r.demand_line_traffic > 0

    def test_prefetch_to_normal_ratio(self, ijpeg_trace, small_config):
        r = run_simulation(small_config, ijpeg_trace)
        assert r.prefetch_to_normal_ratio == pytest.approx(
            r.l1_prefetch_fills / r.l1_demand_accesses
        )

    def test_unknown_engine(self, em3d_trace, small_config):
        with pytest.raises(ValueError):
            Simulator(small_config, engine="cycle_accurate")
