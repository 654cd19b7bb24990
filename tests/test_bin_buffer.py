"""Tests for the BiN buffer-in-NUCA extension."""

import pytest

from repro.engine import Simulator
from repro.errors import AllocationError, CapacityError, ConfigError
from repro.mem import MemorySystem
from repro.mem.bin_buffer import BufferGrant, BufferInNUCA
from repro.noc import MeshTopology


def make_bin(n_islands=4, bank_bytes=1024):
    sim = Simulator()
    topo = MeshTopology(n_islands=n_islands)
    memory = MemorySystem(sim)
    return sim, BufferInNUCA(sim, topo, memory, bank_buffer_bytes=bank_bytes)


def get_grant(sim, bin_, island_index, nbytes):
    grants = []
    bin_.request(island_index, nbytes, grants.append)
    sim.run()
    return grants[0] if grants else None


class TestAllocation:
    def test_grant_within_one_bank(self):
        sim, bin_ = make_bin()
        grant = get_grant(sim, bin_, 0, 512)
        assert isinstance(grant, BufferGrant)
        assert grant.nbytes == 512
        assert len(grant.banks) == 1
        assert bin_.free_bytes() == 8 * 1024 - 512

    def test_large_request_spans_banks(self):
        sim, bin_ = make_bin(bank_bytes=1024)
        grant = get_grant(sim, bin_, 0, 2500)
        assert len(grant.banks) == 3
        assert sum(b for _, b in grant.banks) == pytest.approx(2500)

    def test_nearest_banks_first(self):
        sim, bin_ = make_bin()
        island = bin_.topology.island(0)
        grant = get_grant(sim, bin_, 0, 100)
        granted_bank = grant.banks[0][0]
        granted_node = next(
            n for n in bin_.bank_nodes if n.index == granted_bank
        )
        min_distance = min(
            bin_.topology.hop_distance(island, n) for n in bin_.bank_nodes
        )
        assert bin_.topology.hop_distance(island, granted_node) == min_distance

    def test_release_returns_capacity(self):
        sim, bin_ = make_bin()
        grant = get_grant(sim, bin_, 0, 4096)
        bin_.release(grant)
        assert bin_.free_bytes() == 8 * 1024

    def test_double_release_rejected(self):
        sim, bin_ = make_bin()
        grant = get_grant(sim, bin_, 0, 128)
        bin_.release(grant)
        with pytest.raises(AllocationError):
            bin_.release(grant)

    def test_oversized_request_rejected(self):
        sim, bin_ = make_bin(bank_bytes=1024)
        with pytest.raises(CapacityError):
            bin_.request(0, 9 * 1024, lambda grant: None)

    def test_invalid_request_rejected(self):
        sim, bin_ = make_bin()
        with pytest.raises(ConfigError):
            bin_.request(0, 0, lambda grant: None)

    def test_waiter_served_after_release(self):
        sim, bin_ = make_bin(bank_bytes=1024)
        first = get_grant(sim, bin_, 0, 8 * 1024)  # everything
        waited = []
        bin_.request(1, 1024, waited.append)
        sim.run()
        assert not waited  # still full
        bin_.release(first)
        sim.run()
        assert waited and waited[0].nbytes == 1024

    def test_fifo_waiters(self):
        sim, bin_ = make_bin(bank_bytes=1024)
        hog = get_grant(sim, bin_, 0, 8 * 1024)
        order = []
        bin_.request(1, 512, lambda grant: order.append("a"))
        bin_.request(2, 512, lambda grant: order.append("b"))
        bin_.release(hog)
        sim.run()
        assert order == ["a", "b"]


class TestAccessTiming:
    def test_buffer_access_beats_dram(self):
        """The point of BiN: reuse served at L2 speed, not DRAM speed."""
        sim, bin_ = make_bin(bank_bytes=64 * 1024)
        grant = get_grant(sim, bin_, 0, 32 * 1024)

        done = {}
        sim.schedule(bin_.access(grant, 4096), lambda: done.setdefault("bin", sim.now))
        sim.run()
        start = sim.now
        sim.schedule(bin_.dram_access(4096), lambda: done.setdefault("dram", sim.now))
        sim.run()
        bin_time = done["bin"]
        dram_time = done["dram"] - start
        assert bin_time < dram_time / 2

    def test_access_scales_with_bytes(self):
        sim, bin_ = make_bin(bank_bytes=64 * 1024)
        grant = get_grant(sim, bin_, 0, 1024)
        done = []
        sim.schedule(bin_.access(grant, 3200), lambda: done.append(sim.now))
        sim.run()
        t_small = done[0]
        sim2, bin2 = make_bin(bank_bytes=64 * 1024)
        grant2 = get_grant(sim2, bin2, 0, 1024)
        done2 = []
        sim2.schedule(bin2.access(grant2, 32000), lambda: done2.append(sim2.now))
        sim2.run()
        assert done2[0] > t_small

    def test_access_after_release_rejected(self):
        sim, bin_ = make_bin()
        grant = get_grant(sim, bin_, 0, 128)
        bin_.release(grant)
        with pytest.raises(AllocationError):
            bin_.access(grant, 64)

    def test_negative_access_rejected(self):
        sim, bin_ = make_bin()
        grant = get_grant(sim, bin_, 0, 128)
        with pytest.raises(ConfigError):
            bin_.access(grant, -1)
