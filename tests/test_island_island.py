"""Tests for the island assembly: allocation, data paths, area/power."""

import pytest

from repro.abb import standard_library
from repro.engine import Simulator
from repro.core.composer import Grant
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.island import Island, IslandConfig, NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.power import EnergyAccount

SMALL_MIX = {"poly": 3, "div": 1, "sum": 1}


def make_island(**overrides):
    sim = Simulator()
    energy = EnergyAccount()
    defaults = dict(abb_mix=dict(SMALL_MIX))
    defaults.update(overrides)
    config = IslandConfig(**defaults)
    island = Island(sim, island_id=0, config=config, library=standard_library(), energy=energy)
    return sim, island, energy


class TestConstruction:
    def test_slot_count_matches_mix(self):
        _, island, _ = make_island()
        assert island.n_slots == 5
        assert len(island.slots_of_type("poly")) == 3
        assert len(island.slots_of_type("div")) == 1

    def test_unknown_type_in_mix_rejected(self):
        with pytest.raises(ConfigError):
            make_island(abb_mix={"fft": 2})

    def test_every_slot_starts_free(self):
        _, island, _ = make_island()
        assert island.busy_fraction() == 0.0
        assert all(island.slot_usable(s) for s in range(island.n_slots))
        assert [abb_type.name for abb_type in island.abbs] == [
            "div", "poly", "poly", "poly", "sum"
        ]


class TestAllocation:
    def test_allocate_and_release(self):
        sim, island, _ = make_island()
        slot = island.first_usable("poly")
        island.allocate(slot, owner="t1")
        assert not island.slot_usable(slot)
        assert island.busy_fraction() == pytest.approx(1 / 5)
        island.compute(slot, 10)
        island.release(slot, owner="t1")
        assert island.slot_usable(slot)
        assert island.busy_fraction() == 0.0

    def test_allocate_busy_slot_rejected(self):
        _, island, _ = make_island()
        island.allocate(0, "a")
        with pytest.raises(AllocationError):
            island.allocate(0, "b")

    def test_free_slots_by_type(self):
        _, island, _ = make_island()
        assert island.usable_counts["poly"] == 3
        island.allocate(island.first_usable("poly"), "x")
        assert island.usable_counts["poly"] == 2

    def test_sharing_locks_out_neighbours(self):
        """Section 5.1: allocating an ABB renders nearby ABBs unusable."""
        _, island, _ = make_island(spm_sharing=True)
        island.allocate(2, "t")
        assert not island.slot_usable(1)
        assert not island.slot_usable(3)
        assert island.slot_usable(0)
        assert island.slot_usable(4)

    def test_sharing_release_unlocks(self):
        _, island, _ = make_island(spm_sharing=True)
        island.allocate(2, "t")
        island.compute(2, 1)
        island.release(2, "t")
        assert island.slot_usable(1)
        assert island.slot_usable(3)

    def test_no_sharing_neighbours_unaffected(self):
        _, island, _ = make_island(spm_sharing=False)
        island.allocate(2, "t")
        assert island.slot_usable(1)
        assert island.slot_usable(3)

    def test_sharing_reduces_effective_parallelism(self):
        """With sharing, fewer ABBs can be concurrently allocated."""
        _, shared, _ = make_island(spm_sharing=True, abb_mix={"poly": 6})
        _, private, _ = make_island(spm_sharing=False, abb_mix={"poly": 6})

        def max_parallel(island):
            count = 0
            while True:
                slot = island.first_usable("poly")
                if slot is None:
                    return count
                island.allocate(slot, f"t{count}")
                count += 1

        assert max_parallel(shared) < max_parallel(private)


def _allocate_busy(island):
    island.allocate(0, "a")
    island.allocate(0, "b")


def _allocate_failed(island):
    island.fail_slot(0)
    island.allocate(0, "a")


def _allocate_locked(island):
    island.allocate(2, "a")
    island.allocate(3, "b")


def _allocate_computing(island):
    island.allocate(0, "a")
    island.compute(0, 1)
    island.allocate(0, "b")


def _compute_unowned(island):
    island.compute(0, 1)


def _compute_twice(island):
    island.allocate(0, "a")
    island.compute(0, 1)
    island.compute(0, 1)


def _release_unowned(island):
    island.release(0, "a")


def _release_by_non_owner(island):
    island.allocate(0, "a")
    island.compute(0, 1)
    island.release(0, "b")


def _release_by_equal_grant(island):
    # Grants are value-equal dataclasses: ownership is identity.
    mine = Grant(0, 0, "div")
    island.allocate(0, mine)
    island.compute(0, 1)
    island.release(0, Grant(0, 0, "div"))


def _release_twice(island):
    island.allocate(0, "a")
    island.compute(0, 1)
    island.release(0, "a")
    island.release(0, "a")


def _release_before_compute(island):
    island.allocate(0, "a")
    island.release(0, "a")


MISUSES = [
    (_allocate_busy, AllocationError, "not usable"),
    (_allocate_failed, AllocationError, "not usable"),
    (_allocate_locked, AllocationError, "not usable"),
    (_allocate_computing, AllocationError, "not usable"),
    (_compute_unowned, SimulationError, "while unowned"),
    (_compute_twice, SimulationError, "while computing"),
    (_release_unowned, SimulationError, "non-owner"),
    (_release_by_non_owner, SimulationError, "non-owner"),
    (_release_by_equal_grant, SimulationError, "non-owner"),
    (_release_twice, SimulationError, "non-owner"),
    (_release_before_compute, SimulationError, "before compute"),
]


class TestSlotChecks:
    """Every misuse of a slot's allocate -> compute -> release cycle."""

    @pytest.mark.parametrize(
        "misuse, error, match",
        [
            pytest.param(*case, id=case[0].__name__[1:].replace("_", "-"))
            for case in MISUSES
        ],
    )
    def test_misuse_raises(self, misuse, error, match):
        _, island, _ = make_island(spm_sharing=True)
        with pytest.raises(error, match=match):
            misuse(island)

    def test_clean_cycle_raises_nothing(self):
        _, island, _ = make_island(spm_sharing=True)
        for owner in ("a", "b"):
            island.allocate(0, owner)
            island.compute(0, 1)
            island.release(0, owner)
        assert island.slot_usable(0) and island.slot_usable(1)

    def test_slot_busy_from_allocate_until_release(self):
        sim, island, _ = make_island()
        island.allocate(1, "t")
        done = island.compute(1, 30)
        sim.run()
        assert done.triggered
        assert not island.slot_usable(1)
        assert island.busy_fraction() == pytest.approx(1 / 5)
        island.release(1, "t")
        assert island.slot_usable(1)
        assert island.busy_fraction() == 0.0


class TestDataPath:
    def run_event(self, sim, event):
        done = []
        event.add_callback(lambda e: done.append(sim.now))
        sim.run()
        return done[0]

    def test_ingress_crosses_noc_dma_network(self):
        sim, island, energy = make_island()
        t = self.run_event(sim, island.ingress(0, 600))
        # noc_in: 600/6=100 +4 lat; dma: 600/32=18.75 +1; net: 600/32=18.75 +2
        assert t == pytest.approx(100 + 4 + 18.75 + 1 + 18.75 + 2)
        assert energy.dynamic_nj.get("spm", 0) > 0

    def test_egress_symmetric(self):
        sim, island, _ = make_island()
        t = self.run_event(sim, island.egress(0, 600))
        assert t == pytest.approx(100 + 4 + 18.75 + 1 + 18.75 + 2)

    def test_chain_local_avoids_noc(self):
        sim, island, _ = make_island()
        t_chain = self.run_event(sim, island.chain_local(0, 1, 600))
        sim2, island2, _ = make_island()
        t_ingress = self.run_event(sim2, island2.ingress(0, 600))
        assert t_chain < t_ingress

    def test_compute_uses_pipeline_model(self):
        sim, island, _ = make_island(spm_porting=SpmPorting.DOUBLE)
        island.allocate(0, "t")
        t = self.run_event(sim, island.compute(0, invocations=100))
        poly = island.abbs[0]
        assert t == pytest.approx(poly.compute_cycles(100))

    def test_exact_porting_adds_conflict_penalty(self):
        simA, islandA, _ = make_island(spm_porting=SpmPorting.EXACT)
        islandA.allocate(0, "t")
        tA = self.run_event(simA, islandA.compute(0, 100))
        simB, islandB, _ = make_island(spm_porting=SpmPorting.DOUBLE)
        islandB.allocate(0, "t")
        tB = self.run_event(simB, islandB.compute(0, 100))
        assert tA == pytest.approx(tB * 1.02)

    def test_noc_interface_is_shared_bottleneck(self):
        sim, island, _ = make_island()
        done = []
        island.ingress(0, 600).add_callback(lambda e: done.append(sim.now))
        island.ingress(1, 600).add_callback(lambda e: done.append(sim.now))
        sim.run()
        # Second ingress queues behind the first on the 6 B/cy NoC link.
        assert done[1] - done[0] >= 99.0


class TestPhysicals:
    def test_area_breakdown_keys(self):
        _, island, _ = make_island()
        breakdown = island.area_breakdown_mm2()
        assert set(breakdown) == {
            "abbs",
            "spm",
            "abb_spm_crossbar",
            "spm_dma_network",
            "dma",
            "noc_interface",
        }
        assert all(v > 0 for v in breakdown.values())

    def test_total_area_is_sum(self):
        _, island, _ = make_island()
        assert island.area_mm2 == pytest.approx(
            sum(island.area_breakdown_mm2().values())
        )

    def test_sharing_triples_abb_spm_crossbar(self):
        _, private, _ = make_island(spm_sharing=False)
        _, shared, _ = make_island(spm_sharing=True)
        assert shared.area_breakdown_mm2()["abb_spm_crossbar"] == pytest.approx(
            3 * private.area_breakdown_mm2()["abb_spm_crossbar"]
        )

    def test_static_power_positive(self):
        _, island, _ = make_island()
        assert island.static_power_mw > 0

    def test_utilization_tracking(self):
        sim, island, _ = make_island()
        island.allocate(0, "t")
        sim._schedule(100.0, lambda: None)
        sim.run()
        assert island.average_abb_utilization(100.0) == pytest.approx(1 / 5)
        assert island.peak_abb_utilization() == pytest.approx(1 / 5)
