"""Tests for island configuration validation."""

import re

import pytest

from repro.errors import ConfigError
from repro.island import IslandConfig, NetworkKind, SpmDmaNetworkConfig, SpmPorting


class TestSpmDmaNetworkConfig:
    def test_defaults_are_paper_baseline(self):
        cfg = SpmDmaNetworkConfig()
        assert cfg.kind is NetworkKind.PROXY_CROSSBAR
        assert cfg.link_width_bytes == 32

    def test_paper_widths_only(self):
        SpmDmaNetworkConfig(link_width_bytes=16)
        SpmDmaNetworkConfig(link_width_bytes=32)
        with pytest.raises(ConfigError):
            SpmDmaNetworkConfig(link_width_bytes=64)
        with pytest.raises(ConfigError):
            SpmDmaNetworkConfig(link_width_bytes=8)

    def test_ring_counts_1_to_3(self):
        for rings in (1, 2, 3):
            SpmDmaNetworkConfig(kind=NetworkKind.RING, rings=rings)
        with pytest.raises(ConfigError):
            SpmDmaNetworkConfig(kind=NetworkKind.RING, rings=4)
        with pytest.raises(ConfigError):
            SpmDmaNetworkConfig(kind=NetworkKind.RING, rings=0)

    def test_rings_only_for_ring_kind(self):
        with pytest.raises(ConfigError):
            SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR, rings=2)

    def test_labels_match_paper_figures(self):
        assert (
            SpmDmaNetworkConfig(kind=NetworkKind.RING, rings=2).label()
            == "2-Ring, 32-Byte"
        )
        assert SpmDmaNetworkConfig().label() == "Crossbar"
        assert (
            SpmDmaNetworkConfig(
                kind=NetworkKind.RING, rings=1, link_width_bytes=16
            ).label()
            == "1-Ring, 16-Byte"
        )


class TestIslandConfig:
    def test_total_abbs(self):
        cfg = IslandConfig(abb_mix={"poly": 26, "div": 6, "sqrt": 3, "pow": 2, "sum": 3})
        assert cfg.total_abbs() == 40

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            IslandConfig(abb_mix={})

    def test_all_zero_mix_rejected(self):
        with pytest.raises(ConfigError):
            IslandConfig(abb_mix={"poly": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            IslandConfig(abb_mix={"poly": -1})

    def test_bad_bandwidths_rejected(self):
        with pytest.raises(ConfigError):
            IslandConfig(abb_mix={"poly": 1}, noc_link_bytes_per_cycle=0)
        with pytest.raises(ConfigError):
            IslandConfig(abb_mix={"poly": 1}, dma_bytes_per_cycle=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            (field, value)
            for field, values in (
                ("dma_bytes_per_cycle", (float("inf"), float("nan"), 0.0, "32")),
                ("noc_link_bytes_per_cycle", (float("inf"), float("nan"), -1.0, None)),
                ("abb_spm_width_bytes", (2.5, True, 0, float("inf"))),
                ("ABB count 'poly'", (2.5, True, float("nan"), -1)),
            )
            for value in values
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value):
        if field.startswith("ABB count"):
            kwargs = {"abb_mix": {"poly": value, "div": 1}}
        else:
            kwargs = {"abb_mix": {"poly": 1}, field: value}
        with pytest.raises(ConfigError, match=re.escape(field)):
            IslandConfig(**kwargs)

    def test_porting_enum_values(self):
        assert SpmPorting.EXACT.value == 1
        assert SpmPorting.DOUBLE.value == 2
