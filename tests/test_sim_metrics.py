"""Tests for metric helpers."""

import pytest

from repro.errors import ConfigError
from repro.sim.metrics import arithmetic_mean


class TestArithmeticMean:
    def test_known_value(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            arithmetic_mean([])
