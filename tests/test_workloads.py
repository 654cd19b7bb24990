"""Tests for the benchmark workloads."""

import pytest

from repro.abb import standard_library
from repro.compiler.pf_mapping import register_fabric
from repro.errors import ConfigError, DecompositionError
from repro.workloads import (
    MEDICAL_NAMES,
    NAVIGATION_NAMES,
    PAPER_BENCHMARKS,
    Workload,
    get_workload,
    paper_suite,
    synthetic_workload,
)
from repro.workloads.outofdomain import camel_suite


@pytest.fixture(scope="module")
def lib():
    return standard_library()


class TestSuite:
    def test_seven_paper_benchmarks(self):
        assert len(PAPER_BENCHMARKS) == 7
        assert set(MEDICAL_NAMES) | set(NAVIGATION_NAMES) == set(PAPER_BENCHMARKS)

    def test_paper_suite_in_figure_order(self):
        names = [w.name for w in paper_suite(tiles=2)]
        assert names == [
            "Deblur",
            "Denoise",
            "Segmentation",
            "Registration",
            "Robot Localization",
            "EKF-SLAM",
            "Disparity Map",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            get_workload("Linpack")

    def test_tiles_override(self):
        assert get_workload("Denoise", tiles=5).tiles == 5

    def test_all_graphs_validate(self, lib):
        for workload in paper_suite(tiles=2):
            graph = workload.build_graph(lib)
            assert len(graph) > 0

    def test_all_use_only_standard_types(self, lib):
        for workload in paper_suite(tiles=2):
            for task in workload.build_graph(lib).tasks:
                assert task.abb_type in lib.names


class TestChainingCharacter:
    """The paper's qualitative chaining statements must hold."""

    def test_denoise_has_least_chaining(self, lib):
        ratios = {
            w.name: w.chaining_ratio(lib) for w in paper_suite(tiles=2)
        }
        assert ratios["Denoise"] == min(ratios.values())

    def test_ekf_slam_has_most_chaining(self, lib):
        ratios = {
            w.name: w.chaining_ratio(lib) for w in paper_suite(tiles=2)
        }
        assert ratios["EKF-SLAM"] == max(ratios.values())

    def test_chaining_heavy_benchmarks(self, lib):
        """Sec 5.5 names Segmentation, Robot Localization and EKF-SLAM as
        the chaining-heavy benchmarks."""
        ratios = {
            w.name: w.chaining_ratio(lib) for w in paper_suite(tiles=2)
        }
        heavy = {"Segmentation", "Robot Localization", "EKF-SLAM"}
        light = set(ratios) - heavy
        assert min(ratios[h] for h in heavy) > max(
            ratios[l] for l in light if l != "Deblur"
        )

    def test_segmentation_is_most_compute(self, lib):
        totals = {
            w.name: sum(t.invocations for t in w.build_graph(lib).tasks)
            for w in paper_suite(tiles=2)
        }
        assert totals["Segmentation"] == max(totals.values())


class TestOutOfDomain:
    def test_charm_cannot_decompose(self, lib):
        for workload in camel_suite(tiles=2):
            with pytest.raises(DecompositionError):
                workload.build_graph(lib, allow_fabric=False)

    def test_camel_fabric_covers(self, lib):
        register_fabric(lib)
        for workload in camel_suite(tiles=2):
            graph = workload.build_graph(lib, allow_fabric=True)
            assert any(t.abb_type == "pf" for t in graph.tasks)
            assert any(t.abb_type != "pf" for t in graph.tasks)


class TestSynthetic:
    def test_dimensions(self, lib):
        w = synthetic_workload(depth=4, width=3, tiles=2)
        graph = w.build_graph(lib)
        assert len(graph) == 12

    def test_full_chaining(self, lib):
        w = synthetic_workload(depth=4, width=2, chain_fraction=1.0, tiles=2)
        graph = w.build_graph(lib)
        assert len(graph.edges) == 2 * 3  # every boundary chained

    def test_zero_chaining(self, lib):
        w = synthetic_workload(depth=4, width=2, chain_fraction=0.0, tiles=2)
        assert len(w.build_graph(lib).edges) == 0

    def test_partial_chaining_between(self, lib):
        w = synthetic_workload(depth=5, width=3, chain_fraction=0.5, tiles=2)
        edges = len(w.build_graph(lib).edges)
        assert 0 < edges < 3 * 4

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_workload(depth=0)
        with pytest.raises(ConfigError):
            synthetic_workload(width=0)
        with pytest.raises(ConfigError):
            synthetic_workload(invocations=0)
        with pytest.raises(ConfigError):
            synthetic_workload(chain_fraction=1.5)
        with pytest.raises(ConfigError):
            synthetic_workload(chain_fraction=-0.001)
        with pytest.raises(ConfigError):
            synthetic_workload(chain_fraction=1.001)

    def test_chain_fraction_edges_accepted(self, lib):
        # Both closed endpoints of [0, 1] are valid configurations.
        for fraction in (0.0, 1.0):
            w = synthetic_workload(depth=2, width=2, chain_fraction=fraction, tiles=2)
            assert len(w.build_graph(lib)) == 4

    def test_minimum_dimensions_accepted(self, lib):
        w = synthetic_workload(depth=1, width=1, invocations=1, tiles=1)
        assert len(w.build_graph(lib)) == 1


class TestWorkloadValidation:
    def test_invalid_tiles_rejected(self):
        from repro.compiler import Kernel

        k = Kernel("k")
        k.add_op("a", "stencil", 8)
        with pytest.raises(ConfigError):
            Workload("w", "medical", k, tiles=0, sw_cycles_per_tile=1.0)

    def test_invalid_domain_rejected(self):
        from repro.compiler import Kernel

        k = Kernel("k")
        k.add_op("a", "stencil", 8)
        with pytest.raises(ConfigError):
            Workload("w", "gaming", k, tiles=1, sw_cycles_per_tile=1.0)
