"""Tests for the tracing subsystem."""

import pytest

from repro.abb import ABBFlowGraph
from repro.core import TileScheduler
from repro.engine.trace import TraceRecord, Tracer
from repro.errors import ConfigError
from repro.sim import SystemConfig, SystemModel


class TestTraceRecord:
    def test_duration(self):
        rec = TraceRecord(10.0, 25.0, "a", "compute")
        assert rec.duration == 15.0

    def test_backwards_span_rejected(self):
        with pytest.raises(ConfigError):
            TraceRecord(10.0, 5.0, "a", "compute")

    @pytest.mark.parametrize(
        "start,end",
        [
            (float("nan"), 5.0),
            (0.0, float("nan")),
            (float("nan"), float("nan")),
            (float("inf"), float("inf")),
            (0.0, float("inf")),
            (float("-inf"), 0.0),
        ],
    )
    def test_non_finite_span_rejected(self, start, end):
        # Regression: NaN compares False against everything, so the
        # `end < start` check alone silently admitted NaN spans.
        with pytest.raises(ConfigError):
            TraceRecord(start, end, "a", "compute")

    def test_ref_and_args_carried(self):
        rec = TraceRecord(0.0, 1.0, "a", "compute", "lbl", "t0.x", {"k": 1})
        assert rec.ref == "t0.x"
        assert rec.args == {"k": 1}


class TestTracer:
    def make_tracer(self):
        t = Tracer()
        t.record(0, 10, "abb0", "compute", "t1")
        t.record(10, 14, "abb0", "writeback")
        t.record(2, 8, "abb1", "compute", "t2")
        return t

    def test_query_by_actor_and_kind(self):
        t = self.make_tracer()
        assert len(t.by_actor("abb0")) == 2
        assert len([r for r in t.records if r.kind == "compute"]) == 2
        assert t.actors() == ["abb0", "abb1"]

    def test_busy_and_kind_cycles(self):
        t = self.make_tracer()
        assert t.busy_cycles() == {"abb0": 14.0, "abb1": 6.0}
        assert t.kind_cycles() == {"compute": 16.0, "writeback": 4.0}

    def test_hotspots_ranked(self):
        t = self.make_tracer()
        assert t.hotspots(1) == [("abb0", 14.0)]

    def test_hotspots_reject_negative_top(self):
        # A negative slice would silently drop the least-busy actors.
        with pytest.raises(ConfigError, match="hotspot count"):
            self.make_tracer().hotspots(-1)

    def test_hotspots_tie_break_by_actor_name(self):
        # Equal-cycle actors rank alphabetically regardless of the order
        # their spans were recorded.
        t = Tracer()
        t.record(0, 10, "zeta", "compute")
        t.record(0, 10, "alpha", "compute")
        t.record(0, 10, "mid", "compute")
        assert t.hotspots(3) == [("alpha", 10.0), ("mid", 10.0), ("zeta", 10.0)]

    def test_end_time(self):
        assert self.make_tracer().end_time() == 14.0
        assert Tracer().end_time() == 0.0

    def test_len(self):
        assert len(self.make_tracer()) == 3


class TestGantt:
    def test_rows_per_actor(self):
        t = Tracer()
        t.record(0, 50, "x", "compute")
        t.record(50, 100, "y", "compute")
        chart = t.gantt(width=20)
        lines = chart.splitlines()
        assert len(lines) == 3  # header + 2 actors
        assert lines[1].startswith("x")
        assert "#" in lines[1]

    def test_idle_cells_are_dots(self):
        t = Tracer()
        t.record(90, 100, "x", "compute")
        row = t.gantt(width=20).splitlines()[1]
        assert row.count(".") > row.count("#")

    def test_kind_symbols(self):
        t = Tracer()
        t.record(0, 100, "x", "gather")
        chart = t.gantt(width=20, kind_symbols={"gather": "g"})
        assert "g" in chart

    def test_empty_trace(self):
        assert Tracer().gantt() == "(empty trace)"

    def test_header_survives_large_end_time(self):
        # Regression: an end-time label wider than the chart drove the
        # header padding negative, mangling the first line.
        t = Tracer()
        t.record(0, 123_456_789_012_345_678_901.0, "x", "compute")
        lines = t.gantt(width=12).splitlines()
        header = lines[0]
        assert header.rstrip().endswith(str(int(t.end_time())))
        assert " 0 " in header  # origin mark kept, one-space clamp

    def test_header_right_aligned_for_normal_end_time(self):
        t = Tracer()
        t.record(0, 500, "x", "compute")
        header = t.gantt(width=40).splitlines()[0]
        assert header.endswith("500")
        body = t.gantt(width=40).splitlines()[1]
        assert len(header) <= len(body)

    def test_narrow_width_rejected(self):
        with pytest.raises(ConfigError):
            Tracer().gantt(width=5)

    def test_single_pass_matches_naive_render(self):
        # The one-pass row construction must paint exactly the cells the
        # old per-actor rescan painted.
        t = Tracer()
        for i in range(40):
            actor = f"a{i % 5}"
            t.record(i * 3.0, i * 3.0 + 7.0, actor, "compute")
        width = 30
        end = t.end_time()
        scale = width / end
        chart_rows = t.gantt(width=width).splitlines()[1:]
        for actor, row in zip(t.actors(), chart_rows):
            cells = ["."] * width
            for rec in t.by_actor(actor):
                lo = min(width - 1, int(rec.start * scale))
                hi = min(width, max(lo + 1, int(rec.end * scale)))
                for i in range(lo, hi):
                    cells[i] = "#"
            assert row == f"{actor:<3}|{''.join(cells)}|"

    def test_actor_subset_and_unknown_actor_ignored(self):
        t = Tracer()
        t.record(0, 10, "x", "compute")
        t.record(0, 10, "y", "compute")
        chart = t.gantt(width=20, actors=["y"])
        assert "x" not in chart
        assert chart.splitlines()[1].startswith("y")


class TestSchedulerIntegration:
    def test_traced_run_produces_spans(self):
        tracer = Tracer()
        system = SystemModel(SystemConfig(n_islands=3), tracer=tracer)
        graph = ABBFlowGraph("g")
        graph.add_task("a", "poly", 16)
        graph.add_task("b", "div", 16)
        graph.add_edge("a", "b")
        TileScheduler(system, graph, tile_id=0).run()
        system.sim.run()
        kinds = {r.kind for r in tracer.records}
        assert "compute" in kinds
        assert "gather" in kinds
        assert "writeback" in kinds
        # Compute spans exist for both tasks.
        assert len([r for r in tracer.records if r.kind == "compute"]) == 2

    def test_tracing_does_not_change_timing(self):
        def run(tracer):
            system = SystemModel(SystemConfig(n_islands=3), tracer=tracer)
            graph = ABBFlowGraph("g")
            graph.add_task("a", "poly", 64)
            TileScheduler(system, graph, 0).run()
            system.sim.run()
            return system.sim.now

        assert run(None) == run(Tracer())

    def test_untraced_run_records_nothing(self):
        system = SystemModel(SystemConfig(n_islands=3))
        assert system.tracer is None
