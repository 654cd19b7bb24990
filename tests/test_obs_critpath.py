"""Tests for critical-path bottleneck attribution.

The load-bearing invariants (also exercised as hypothesis properties on
chain-shaped synthetic workloads):

* attribution segments tile [0, makespan] exactly, so category shares
  always sum to 100% of the makespan;
* the reported critical path length equals the simulated makespan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.obs import (
    CATEGORIES,
    analyze_critical_path,
    category_cycles_by_tenant,
)
from repro.sim import SystemConfig, run_workload
from repro.workloads import denoise, synthetic_workload


def synthetic_trace():
    """A hand-built two-task chain with known span structure."""
    t = Tracer()
    # Task A: [0, 50] — alloc wait 0-5, dma 5-20, compute 20-50.
    t.record(0.0, 5.0, "island0.slot0", "alloc_wait", "a", "t0.a")
    t.record(5.0, 20.0, "island0.dma", "dma", "a", "t0.a")
    t.record(20.0, 50.0, "island0.slot0", "compute", "a", "t0.a",
             {"conflict": 0.0})
    t.record(0.0, 50.0, "island0.slot0", "task", "a", "t0.a",
             {"deps": [], "tenant": ""})
    # Task B: [50, 100] — noc 50-70, compute 70-100 (conflict 25%).
    t.record(50.0, 70.0, "mesh.0,0->1,0", "noc", "b", "t0.b")
    t.record(70.0, 100.0, "island1.slot0", "compute", "b", "t0.b",
             {"conflict": 0.25})
    t.record(50.0, 100.0, "island1.slot0", "task", "b", "t0.b",
             {"deps": ["t0.a"], "tenant": ""})
    return t


class TestSyntheticWalk:
    def test_segments_tile_the_makespan(self):
        report = analyze_critical_path(synthetic_trace())
        assert report.makespan == 100.0
        assert report.segments[0].start == 0.0
        assert report.segments[-1].end == 100.0
        for left, right in zip(report.segments, report.segments[1:]):
            assert left.end == pytest.approx(right.start)

    def test_category_cycles(self):
        report = analyze_critical_path(synthetic_trace())
        # Conflict share of B's compute: 30 * 0.25/1.25 = 6.
        assert report.cycles["compute"] == pytest.approx(30.0 + 24.0)
        assert report.cycles["spm_conflict"] == pytest.approx(6.0)
        assert report.cycles["dma"] == pytest.approx(15.0)
        assert report.cycles["noc"] == pytest.approx(20.0)
        assert report.cycles["abc_wait"] == pytest.approx(5.0)
        assert report.cycles["other"] == pytest.approx(0.0)

    def test_shares_sum_to_one(self):
        report = analyze_critical_path(synthetic_trace())
        assert sum(report.shares().values()) == pytest.approx(1.0)

    def test_critical_path_equals_makespan(self):
        report = analyze_critical_path(synthetic_trace())
        assert report.critical_path_cycles == pytest.approx(report.makespan)

    def test_drain_past_last_span_goes_to_other(self):
        report = analyze_critical_path(synthetic_trace(), makespan=120.0)
        assert report.cycles["other"] == pytest.approx(20.0)
        assert report.detail_cycles["drain"] == pytest.approx(20.0)
        assert sum(report.shares().values()) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "makespan", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_bad_makespan_rejected(self, makespan):
        # NaN used to yield NaN shares, +inf all-zero shares that do not
        # sum to 1, and a negative makespan silently became 0.
        with pytest.raises(ConfigError, match="makespan"):
            analyze_critical_path(synthetic_trace(), makespan=makespan)

    def test_empty_trace(self):
        report = analyze_critical_path(Tracer())
        assert report.makespan == 0.0
        assert report.segments == ()
        assert sum(report.shares().values()) == 0.0

    def test_format_table_mentions_every_category(self):
        table = analyze_critical_path(synthetic_trace()).format_table()
        for category in CATEGORIES:
            assert category in table


class TestRealWorkload:
    def run_traced(self, workload, **kwargs):
        tracer = Tracer()
        result = run_workload(
            SystemConfig(n_islands=3), workload, tracer=tracer, **kwargs
        )
        return tracer, result

    def test_denoise_attribution_covers_makespan(self):
        tracer, result = self.run_traced(denoise())
        report = analyze_critical_path(tracer, makespan=result.total_cycles)
        assert sum(report.shares().values()) == pytest.approx(1.0)
        assert report.critical_path_cycles == pytest.approx(
            result.total_cycles
        )
        # The acceptance bar: categories sum to 100% +- 1% of makespan.
        total = sum(report.cycles.values())
        assert total == pytest.approx(result.total_cycles, rel=0.01)

    def test_result_attribution_field_matches_analyzer(self):
        tracer, result = self.run_traced(denoise())
        report = analyze_critical_path(tracer, makespan=result.total_cycles)
        assert result.attribution == report.shares()

    def test_tenant_busy_breakdown(self):
        tracer, _result = self.run_traced(denoise())
        by_tenant = category_cycles_by_tenant(tracer)
        assert set(by_tenant) == {""}  # single-workload run: no tenants
        busy = by_tenant[""]
        assert set(busy) == set(CATEGORIES)
        assert busy["compute"] > 0
        assert busy["dma"] > 0


# Chain-shaped workloads: width=1 gives one linear dependency chain per
# tile, the shape where the critical path is the whole story.
chain_params = st.fixed_dictionaries(
    {
        "depth": st.integers(min_value=1, max_value=5),
        "invocations": st.integers(min_value=16, max_value=512),
        "chain_fraction": st.sampled_from([0.0, 0.5, 1.0]),
        "tiles": st.integers(min_value=1, max_value=4),
    }
)


class TestChainProperties:
    @settings(max_examples=12, deadline=None)
    @given(params=chain_params)
    def test_shares_sum_to_100_percent_and_path_covers_makespan(self, params):
        workload = synthetic_workload(
            name="chain", width=1, sw_cycles_per_tile=1e6, **params
        )
        tracer = Tracer()
        result = run_workload(
            SystemConfig(n_islands=3), workload, tracer=tracer
        )
        report = analyze_critical_path(tracer, makespan=result.total_cycles)
        # Attribution percentages sum to ~100% of the makespan.
        assert sum(report.shares().values()) == pytest.approx(1.0)
        assert sum(report.cycles.values()) == pytest.approx(
            result.total_cycles
        )
        # The reported critical path length equals the makespan.
        assert report.critical_path_cycles == pytest.approx(
            result.total_cycles
        )
        # Segments are contiguous over [0, makespan].
        assert report.segments[0].start == pytest.approx(0.0)
        assert report.segments[-1].end == pytest.approx(result.total_cycles)
        for left, right in zip(report.segments, report.segments[1:]):
            assert left.end == pytest.approx(right.start)

    @settings(max_examples=6, deadline=None)
    @given(
        depth=st.integers(min_value=2, max_value=5),
        invocations=st.integers(min_value=32, max_value=256),
    )
    def test_single_tile_chain_has_no_handoff_gap(self, depth, invocations):
        # One tile, one chain: every consumer starts the instant its
        # producer ends, so no segment is a gap before a dependency's
        # consumer.
        workload = synthetic_workload(
            name="chain1",
            depth=depth,
            width=1,
            invocations=invocations,
            chain_fraction=1.0,
            tiles=1,
            sw_cycles_per_tile=1e6,
        )
        tracer = Tracer()
        result = run_workload(
            SystemConfig(n_islands=3), workload, tracer=tracer
        )
        report = analyze_critical_path(tracer, makespan=result.total_cycles)
        assert sum(report.shares().values()) == pytest.approx(1.0)
        assert report.detail_cycles.get("handoff", 0.0) == pytest.approx(
            0.0, abs=1e-6
        )
