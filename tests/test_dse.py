"""Tests for the design-space exploration harness."""

import pytest

from repro.dse import DesignSpace, Explorer, design_points, format_table
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.workloads import get_workload, synthetic_workload


def small_space():
    return DesignSpace(
        island_counts=(3, 6),
        networks=(
            SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR),
            SpmDmaNetworkConfig(kind=NetworkKind.RING, link_width_bytes=32, rings=2),
        ),
    )


class TestDesignSpace:
    def test_default_space_matches_paper(self):
        space = DesignSpace()
        assert space.size() == 4 * 5  # 4 island counts x 5 networks

    def test_design_points_deterministic_order(self):
        space = small_space()
        first = [c.label() for c in design_points(space)]
        second = [c.label() for c in design_points(space)]
        assert first == second
        assert len(first) == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            DesignSpace(island_counts=())


class TestExplorer:
    @pytest.fixture(scope="class")
    def explorer(self):
        ex = Explorer([get_workload("Denoise", tiles=4), get_workload("EKF-SLAM", tiles=4)])
        ex.sweep(small_space())
        return ex

    def test_sweep_covers_all_points(self, explorer):
        assert len(explorer.rows) == 4 * 2  # points x workloads

    def test_cache_avoids_rerun(self, explorer):
        before = len(explorer.rows)
        ran = explorer.simulations_run
        first_network = small_space().networks[:1]
        explorer.sweep(DesignSpace(island_counts=(3,), networks=first_network))
        # Rows grow, but results come from cache (identical objects).
        assert explorer.simulations_run == ran
        rows = explorer.results_for("Denoise")
        assert rows[0].result is [
            r for r in explorer.rows[before:] if r.workload == "Denoise"
        ][0].result

    def test_results_for_filters(self, explorer):
        rows = explorer.results_for("EKF-SLAM")
        assert rows and all(r.workload == "EKF-SLAM" for r in rows)

    def test_best_by_performance(self, explorer):
        best = explorer.best_by(lambda r: r.performance, "EKF-SLAM")
        all_perf = [r.result.performance for r in explorer.results_for("EKF-SLAM")]
        assert best.result.performance == max(all_perf)

    def test_pareto_front_nonempty_and_contains_best(self, explorer):
        front = explorer.pareto_front(
            [lambda r: r.performance, lambda r: r.perf_per_area], "Denoise"
        )
        assert front
        best_perf = explorer.best_by(lambda r: r.performance, "Denoise")
        assert any(row.result is best_perf.result for row in front)

    def test_duplicate_workloads_rejected(self):
        w = get_workload("Denoise", tiles=2)
        with pytest.raises(ConfigError):
            Explorer([w, w])

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigError):
            Explorer([])

    def test_best_before_sweep_rejected(self):
        ex = Explorer([synthetic_workload(tiles=2)])
        with pytest.raises(ConfigError):
            ex.best_by(lambda r: r.performance)


class TestParetoAlgorithms:
    def test_three_metric_front_contains_best(self):
        ex = Explorer([get_workload("Denoise", tiles=2)])
        ex.sweep(DesignSpace(island_counts=(3, 6)))
        front = ex.pareto_front(
            [
                lambda r: r.performance,
                lambda r: r.perf_per_area,
                lambda r: r.perf_per_energy,
            ]
        )
        assert front
        best = ex.best_by(lambda r: r.performance)
        assert any(row.result is best.result for row in front)


class TestFormatTable:
    def test_renders_rows_and_columns(self):
        table = {"Denoise": {"perf": 1.0, "area": 2.5}, "EKF": {"perf": 0.5, "area": 1.0}}
        text = format_table(table, title="demo")
        assert "demo" in text
        assert "Denoise" in text
        assert "2.500" in text
