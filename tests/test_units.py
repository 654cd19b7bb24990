"""Tests for unit conversions."""

import pytest

from repro.errors import ConfigError
from repro.units import (
    ACCEL_CLOCK,
    CORE_CLOCK,
    Clock,
    gbps_to_bytes_per_cycle,
)


class TestClock:
    def test_paper_clock_domains(self):
        assert ACCEL_CLOCK.freq_hz == 1e9
        assert CORE_CLOCK.freq_hz == 2e9

    def test_cycle_second_round_trip(self):
        clock = Clock(1e9)
        assert clock.cycles_to_seconds(1e9) == pytest.approx(1.0)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Clock(0)
        with pytest.raises(ConfigError):
            Clock(-1e9)


class TestBandwidthConversions:
    def test_paper_memory_controller_rate(self):
        """10 GB/s at the 1 GHz uncore clock is 10 bytes/cycle."""
        assert gbps_to_bytes_per_cycle(10.0) == pytest.approx(10.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            gbps_to_bytes_per_cycle(-1.0)
