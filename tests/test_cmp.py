"""Tests for the CMP baseline models and the comparison machinery."""

import pytest

from repro.cmp import (
    CoreModel,
    MulticoreModel,
    XEON_E5405,
    XEON_E5_2420,
    compare_to_cmp,
    xeon_e5405,
    xeon_e5_2420,
)
from repro.errors import ConfigError
from repro.sim import SystemConfig, run_workload
from repro.workloads import get_workload, synthetic_workload


class TestCoreModel:
    def test_time_and_energy(self):
        core = CoreModel("test", freq_ghz=2.0, active_power_w=10.0)
        assert core.execution_time_s(2e9) == pytest.approx(1.0)
        assert core.energy_j(2e9) == pytest.approx(10.0)

    def test_figure1_defaults(self):
        core = CoreModel("test", freq_ghz=2.0, active_power_w=10.0)
        assert core.issue_width == 4
        assert core.rob_entries == 96

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            CoreModel("bad", freq_ghz=0, active_power_w=1)
        with pytest.raises(ConfigError):
            CoreModel("bad", freq_ghz=1, active_power_w=-1)


class TestXeonPresets:
    def test_paper_clock_speeds(self):
        assert XEON_E5405.freq_ghz == 2.0
        assert XEON_E5_2420.freq_ghz == 1.9

    def test_core_counts(self):
        assert xeon_e5405().n_cores == 4
        assert xeon_e5_2420().n_cores == 12

    def test_names(self):
        assert xeon_e5_2420().name == "12-core Xeon E5-2420"
        assert xeon_e5405().name == "4-core Xeon E5405"


class TestMulticoreModel:
    def test_scaling_with_cores(self):
        w = synthetic_workload(tiles=8, sw_cycles_per_tile=1e6)
        one = MulticoreModel(XEON_E5_2420, n_cores=1)
        twelve = MulticoreModel(XEON_E5_2420, n_cores=12, parallel_efficiency=1.0)
        assert one.execution_time_s(w) == pytest.approx(
            12 * twelve.execution_time_s(w)
        )

    def test_single_core_has_no_efficiency_loss(self):
        assert MulticoreModel(XEON_E5405, n_cores=1).effective_cores() == 1.0

    def test_parallel_efficiency_degrades(self):
        good = MulticoreModel(XEON_E5405, n_cores=4, parallel_efficiency=1.0)
        poor = MulticoreModel(XEON_E5405, n_cores=4, parallel_efficiency=0.5)
        assert poor.effective_cores() == pytest.approx(2.0)
        assert good.effective_cores() == pytest.approx(4.0)

    def test_socket_power_includes_uncore(self):
        model = MulticoreModel(XEON_E5405, n_cores=4, uncore_power_fraction=0.5)
        assert model.socket_power_w() == pytest.approx(4 * 20.0 * 1.5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            MulticoreModel(XEON_E5405, n_cores=0)
        with pytest.raises(ConfigError):
            MulticoreModel(XEON_E5405, n_cores=2, parallel_efficiency=0.0)


class TestCompare:
    @pytest.fixture(scope="class")
    def comparison(self):
        w = get_workload("Denoise", tiles=4)
        result = run_workload(SystemConfig(n_islands=6), w)
        return compare_to_cmp(result, w, xeon_e5_2420())

    def test_speedup_positive(self, comparison):
        assert comparison.speedup > 1.0

    def test_energy_gain_positive(self, comparison):
        assert comparison.energy_gain > 1.0

    def test_ratios_consistent(self, comparison):
        assert comparison.speedup == pytest.approx(
            comparison.cmp_time_s / comparison.accelerator_time_s
        )
        assert comparison.energy_gain == pytest.approx(
            comparison.cmp_energy_j / comparison.accelerator_energy_j
        )

    def test_tile_mismatch_rejected(self):
        w4 = get_workload("Denoise", tiles=4)
        w8 = get_workload("Denoise", tiles=8)
        result = run_workload(SystemConfig(n_islands=3), w4)
        with pytest.raises(ConfigError):
            compare_to_cmp(result, w8, xeon_e5_2420())
