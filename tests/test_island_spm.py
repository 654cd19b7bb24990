"""Tests for per-ABB SPM groups and the island's SPM end."""

import pytest

from repro.abb import standard_library
from repro.island import SpmPorting
from repro.island.spm import EXACT_PORTING_CONFLICT_PENALTY, SPMGroup
from tests.test_island_island import make_island, move


@pytest.fixture
def poly():
    return standard_library().get("poly")


class TestPorting:
    def test_exact_porting_has_small_conflict_penalty(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        assert group.conflict_penalty == EXACT_PORTING_CONFLICT_PENALTY
        assert group.conflict_penalty <= 0.05  # "very little, if at all"

    def test_double_porting_removes_conflicts(self, poly):
        group = SPMGroup(poly, SpmPorting.DOUBLE)
        assert group.conflict_penalty == 0.0

    def test_double_porting_costs_area_and_power(self, poly):
        exact = SPMGroup(poly, SpmPorting.EXACT)
        double = SPMGroup(poly, SpmPorting.DOUBLE)
        assert double.area_mm2 > exact.area_mm2
        assert double.static_power_mw > exact.static_power_mw

    def test_bank_count_from_type(self, poly):
        group = SPMGroup(poly, SpmPorting.EXACT)
        assert group.banks == poly.spm_banks_min


class TestAccounting:
    def test_reads_and_writes_tracked(self):
        """The island's SPM end counts each slot's bytes and charges
        their access energy."""
        sim, island, energy = make_island(abb_mix={"poly": 3})
        move(island, None, 1, 100)
        sim.run()
        e1 = energy.dynamic_nj["spm"]
        move(island, 2, None, 50)
        sim.run()
        e2 = energy.dynamic_nj["spm"] - e1
        assert island.spm.bytes_written == [0.0, 100, 0.0]
        assert island.spm.bytes_read == [0.0, 0.0, 50]
        assert e1 > 0 and e2 > 0

    def test_energy_proportional_to_bytes(self, poly):
        model = SPMGroup(poly, SpmPorting.EXACT).model
        assert model.access_energy_nj(200) == pytest.approx(
            2 * model.access_energy_nj(100)
        )
