"""Tests for the ARC / CHARM / CAMEL architecture generations."""

import pytest

from repro.arch import (
    ARCSystem,
    best_paper_config,
    camel_config,
    camel_library,
    charm_config,
    run_arc,
    run_camel,
    run_charm,
)
from repro.arch.arc import monolithic_cycles
from repro.arch.presets import BASELINE_ISLAND_COUNTS, PAPER_NETWORKS
from repro.errors import ConfigError, DecompositionError
from repro.island import NetworkKind
from repro.workloads import get_workload
from repro.workloads.outofdomain import feature_extraction


class TestPresets:
    def test_paper_island_counts(self):
        assert BASELINE_ISLAND_COUNTS == [3, 6, 12, 24]

    def test_five_paper_networks(self):
        assert set(PAPER_NETWORKS) == {
            "Crossbar",
            "1-Ring, 16-Byte",
            "1-Ring, 32-Byte",
            "2-Ring, 32-Byte",
            "3-Ring, 32-Byte",
        }

    def test_best_config_is_24_island_2ring(self):
        cfg = best_paper_config()
        assert cfg.n_islands == 24
        assert cfg.network.kind is NetworkKind.RING
        assert cfg.network.rings == 2
        assert cfg.network.link_width_bytes == 32


class TestARC:
    def test_monolithic_faster_per_tile_than_critical_path(self):
        from repro.abb import standard_library

        w = get_workload("Segmentation", tiles=2)
        lib = standard_library()
        graph = w.build_graph(lib)
        assert monolithic_cycles(graph, lib) < graph.critical_path_cycles(lib)

    def test_run_produces_result(self):
        result = run_arc(get_workload("Deblur", tiles=4))
        assert result.tiles == 4
        assert result.total_cycles > 0
        assert "ARC" in result.config_label

    def test_more_units_more_throughput(self):
        w = get_workload("Denoise", tiles=8)
        r1 = run_arc(w, n_units=1)
        r3 = run_arc(w, n_units=3)
        assert r3.performance > r1.performance

    def test_area_scales_with_units(self):
        w = get_workload("Deblur", tiles=2)
        assert ARCSystem(w, n_units=2).area_mm2 == pytest.approx(
            2 * ARCSystem(w, n_units=1).area_mm2
        )

    def test_invalid_units_rejected(self):
        with pytest.raises(ConfigError):
            ARCSystem(get_workload("Deblur", tiles=2), n_units=0)

    def test_deterministic(self):
        w = get_workload("Registration", tiles=4)
        assert run_arc(w).total_cycles == run_arc(w).total_cycles


class TestCHARM:
    def test_charm_config_defaults(self):
        cfg = charm_config()
        assert cfg.n_islands == 8
        assert cfg.network.kind is NetworkKind.PROXY_CROSSBAR

    def test_run_charm(self):
        result = run_charm(get_workload("Denoise", tiles=4))
        assert result.total_cycles > 0

    def test_charm_beats_arc_on_medical_average(self):
        """Section 2: CHARM improves performance ~2X over ARC."""
        ratios = []
        for name in ["Deblur", "Denoise", "Registration"]:
            w = get_workload(name, tiles=8)
            arc = run_arc(w)
            charm = run_charm(w)
            ratios.append(charm.performance / arc.performance)
        avg = sum(ratios) / len(ratios)
        assert avg > 1.5  # paper: "over 2X"; see EXPERIMENTS.md


class TestCAMEL:
    def test_library_has_fabric(self):
        assert "pf" in camel_library()

    def test_config_mixes_pf_blocks(self):
        cfg = camel_config()
        assert cfg.abb_mix["pf"] > 0

    def test_charm_rejects_out_of_domain(self):
        w = feature_extraction(tiles=2)
        with pytest.raises(DecompositionError):
            run_charm(w)

    def test_camel_runs_out_of_domain(self):
        result = run_camel(feature_extraction(tiles=4))
        assert result.total_cycles > 0

    def test_camel_also_runs_in_domain(self):
        result = run_camel(get_workload("Denoise", tiles=2))
        assert result.total_cycles > 0
