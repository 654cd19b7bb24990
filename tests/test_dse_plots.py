"""Tests for text-mode figure rendering."""

import pytest

from repro.dse.plots import hbar_chart, line_series
from repro.errors import ConfigError


class TestHBarChart:
    def test_bars_scale_with_values(self):
        chart = hbar_chart({"a": 1.0, "b": 2.0}, width=20)
        row_a, row_b = chart.splitlines()
        assert row_b.count("█") == 2 * row_a.count("█")

    def test_title_first_line(self):
        chart = hbar_chart({"a": 1.0}, title="demo")
        assert chart.splitlines()[0] == "demo"

    def test_values_printed(self):
        assert "2.50" in hbar_chart({"x": 2.5})

    def test_reference_marker(self):
        chart = hbar_chart({"a": 0.5, "b": 4.0}, width=20, reference=2.0)
        assert "|" in chart

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            hbar_chart({})

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            hbar_chart({"a": -1.0})

    def test_narrow_width_rejected(self):
        with pytest.raises(ConfigError):
            hbar_chart({"a": 1.0}, width=2)


class TestLineSeries:
    def test_alignment(self):
        text = line_series({"a": [1.0, 2.0], "bb": [3.0, 4.0]}, x_labels=[3, 24])
        lines = text.splitlines()
        assert "3" in lines[0] and "24" in lines[0]
        assert "1.00" in lines[1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            line_series({"a": [1.0]}, x_labels=[1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            line_series({}, x_labels=[])
