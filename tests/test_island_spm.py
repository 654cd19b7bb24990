"""Tests for per-ABB SPM groups."""

import pytest

from repro.abb import standard_library
from repro.island import SpmPorting
from repro.island.spm import EXACT_PORTING_CONFLICT_PENALTY, SPMGroup


@pytest.fixture
def poly():
    return standard_library().get("poly")


class TestPorting:
    def test_exact_porting_has_small_conflict_penalty(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        assert group.conflict_penalty() == EXACT_PORTING_CONFLICT_PENALTY
        assert group.conflict_penalty() <= 0.05  # "very little, if at all"

    def test_double_porting_removes_conflicts(self, poly):
        group = SPMGroup(poly, SpmPorting.DOUBLE)
        assert group.conflict_penalty() == 0.0

    def test_double_porting_costs_area_and_power(self, poly):
        exact = SPMGroup(poly, SpmPorting.EXACT)
        double = SPMGroup(poly, SpmPorting.DOUBLE)
        assert double.area_mm2 > exact.area_mm2
        assert double.static_power_mw > exact.static_power_mw

    def test_bank_count_from_type(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        assert group.banks == poly.spm_banks_min


class TestAccounting:
    def test_reads_and_writes_tracked(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        e1 = group.record_write(100)
        e2 = group.record_read(50)
        assert group.bytes_written == 100
        assert group.bytes_read == 50
        assert e1 > 0 and e2 > 0

    def test_energy_proportional_to_bytes(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        assert group.record_read(200) == pytest.approx(2 * group.record_read(100))
