"""Integration tests: full workload runs through the simulator."""

import pytest

from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, run_workload
from repro.workloads import get_workload, synthetic_workload


@pytest.fixture(scope="module")
def denoise_result():
    return run_workload(SystemConfig(n_islands=3), get_workload("Denoise", tiles=8))


class TestRunWorkload:
    def test_produces_complete_result(self, denoise_result):
        r = denoise_result
        assert r.tiles == 8
        assert r.total_cycles > 0
        assert r.energy_nj > 0
        assert r.area_mm2 > 0
        assert 0 < r.abb_utilization_avg <= 1
        assert r.memory_bytes > 0

    def test_deterministic(self):
        cfg = SystemConfig(n_islands=3)
        w = get_workload("Deblur", tiles=4)
        r1 = run_workload(cfg, w)
        r2 = run_workload(cfg, w)
        assert r1.total_cycles == r2.total_cycles
        assert r1.energy_nj == r2.energy_nj

    def test_more_tiles_take_longer(self):
        cfg = SystemConfig(n_islands=3)
        r4 = run_workload(cfg, get_workload("Denoise", tiles=4))
        r8 = run_workload(cfg, get_workload("Denoise", tiles=8))
        assert r8.total_cycles > r4.total_cycles

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            run_workload(SystemConfig(), get_workload("Denoise", tiles=2), tile_window=0)

    def test_graph_sorted_per_run_not_per_tile(self, monkeypatch):
        # The flow graph is compiled once per run: tile count must not
        # change how often it is sorted.
        from repro.abb import ABBFlowGraph

        calls = [0]
        original = ABBFlowGraph.topological_order

        def counted(graph):
            calls[0] += 1
            return original(graph)

        monkeypatch.setattr(ABBFlowGraph, "topological_order", counted)
        sorts = []
        for tiles in (2, 16):
            workload = get_workload("Denoise", tiles=tiles)
            calls[0] = 0
            run_workload(SystemConfig(n_islands=3), workload)
            sorts.append(calls[0])
        assert sorts[0] == sorts[1]

    def test_energy_breakdown_categories(self, denoise_result):
        breakdown = denoise_result.energy_breakdown_nj
        for category in ("abb", "spm", "noc", "dram", "static"):
            assert breakdown.get(category, 0) > 0, category

    def test_all_paper_benchmarks_run(self):
        cfg = SystemConfig(n_islands=6)
        for name in [
            "Deblur",
            "Denoise",
            "Segmentation",
            "Registration",
            "Robot Localization",
            "EKF-SLAM",
            "Disparity Map",
        ]:
            result = run_workload(cfg, get_workload(name, tiles=2))
            assert result.total_cycles > 0

    def test_synthetic_workload_runs(self):
        w = synthetic_workload(depth=3, width=2, tiles=4)
        result = run_workload(SystemConfig(n_islands=3), w)
        assert result.tiles == 4

    def test_window_of_one_serializes_tiles(self):
        cfg = SystemConfig(n_islands=3)
        w = get_workload("Denoise", tiles=4)
        serial = run_workload(cfg, w, tile_window=1)
        parallel = run_workload(cfg, w, tile_window=8)
        assert serial.total_cycles > parallel.total_cycles


class TestResultMetrics:
    def test_performance_definition(self, denoise_result):
        r = denoise_result
        assert r.performance == pytest.approx(r.tiles / r.total_cycles * 1e6)
        assert r.cycles_per_tile == pytest.approx(r.total_cycles / r.tiles)

    def test_perf_per_energy_and_area(self, denoise_result):
        r = denoise_result
        assert r.perf_per_energy == pytest.approx(r.performance / r.energy_nj)
        assert r.perf_per_area == pytest.approx(r.performance / r.area_mm2)

    def test_summary_row_keys(self, denoise_result):
        row = denoise_result.summary_row()
        assert {"performance", "perf_per_energy", "perf_per_area"} <= set(row)
