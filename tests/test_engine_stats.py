"""Unit tests for statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import Histogram, UtilizationTracker
from repro.errors import ConfigError


class TestHistogram:
    def test_empty_histogram_safe(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.count == 0

    def test_mean_min_max(self):
        h = Histogram()
        for v in [2.0, 4.0, 6.0]:
            h.record(v)
        assert h.mean == pytest.approx(4.0)
        assert h.min == 2.0
        assert h.max == 6.0

    def test_percentile_exact_order_statistics(self):
        h = Histogram()
        for v in [40.0, 10.0, 30.0, 20.0]:  # insertion order irrelevant
            h.record(v)
        assert h.percentile(0.0) == 10.0
        assert h.percentile(100.0) == 40.0
        assert h.percentile(50.0) == pytest.approx(25.0)  # interpolated
        assert h.percentile(25.0) == pytest.approx(17.5)

    def test_percentile_single_sample(self):
        h = Histogram()
        h.record(7.0)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert h.percentile(p) == 7.0

    def test_percentile_rejects_bad_input(self):
        h = Histogram()
        with pytest.raises(ConfigError):
            h.percentile(50.0)  # empty
        h.record(1.0)
        with pytest.raises(ConfigError):
            h.percentile(-0.1)
        with pytest.raises(ConfigError):
            h.percentile(100.1)

    def test_percentile_cache_invalidated_by_record(self):
        h = Histogram()
        h.record(1.0)
        assert h.percentile(100.0) == 1.0
        h.record(5.0)
        assert h.percentile(100.0) == 5.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0.0, 100.0),
    )
    def test_percentile_matches_sorted_interpolation(self, values, p):
        h = Histogram()
        for v in values:
            h.record(v)
        ordered = sorted(values)
        rank = p / 100.0 * (len(ordered) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        expected = ordered[lower] + (rank - lower) * (
            ordered[upper] - ordered[lower]
        )
        assert h.percentile(p) == pytest.approx(expected, rel=1e-9, abs=1e-6)
        assert min(values) <= h.percentile(p) <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_matches_direct_computation(self, values):
        h = Histogram()
        for v in values:
            h.record(v)
        mean = sum(values) / len(values)
        assert h.mean == pytest.approx(mean, rel=1e-6, abs=1e-6)


class TestUtilizationTracker:
    def test_constant_level(self):
        u = UtilizationTracker(capacity=4)
        u.set_level(2, now=0.0)
        assert u.average(10.0) == pytest.approx(2.0)
        assert u.average_utilization(10.0) == pytest.approx(0.5)

    def test_step_changes(self):
        u = UtilizationTracker(capacity=2)
        u.set_level(1, now=0.0)
        u.set_level(2, now=5.0)
        u.set_level(0, now=10.0)
        # 1*5 + 2*5 + 0*10 = 15 over 20 cycles.
        assert u.average(20.0) == pytest.approx(0.75)
        assert u.peak == 2
        assert u.peak_utilization == pytest.approx(1.0)

    def test_adjust_delta(self):
        u = UtilizationTracker(capacity=10)
        u.adjust(+3, now=0.0)
        u.adjust(-1, now=4.0)
        assert u.average(8.0) == pytest.approx((3 * 4 + 2 * 4) / 8.0)

    def test_zero_duration(self):
        u = UtilizationTracker(capacity=1)
        assert u.average(0.0) == 0.0
        assert u.average_utilization(0.0) == 0.0

