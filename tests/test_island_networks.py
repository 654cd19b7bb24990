"""Tests for the three SPM<->DMA network designs.

A network's shape (:class:`NetworkShape`) is built from bank counts and
a config alone; a run's network (:class:`SpmDmaNetwork`) adds its
servers.  A movement is driven as one route over the network's legs
(``net.legs(src, dst)``, ``None`` standing for the DMA engine).
"""

from functools import partial

import pytest

from repro.engine import BandwidthServer, Route, Simulator
from repro.engine.route import DONE
from repro.errors import ConfigError
from repro.island import (
    NetworkKind,
    NetworkShape,
    SpmDmaNetwork,
    SpmDmaNetworkConfig,
)
from repro.power import EnergyAccount

#: The DMA engine's rate and latency: by default one that takes no time,
#: so a proxy chain costs exactly its two port traversals.
INSTANT_DMA = (float("inf"), 0.0)


def make(kind, n_slots=4, banks_per_slot=4, width=32, rings=1, dma=INSTANT_DMA):
    sim = Simulator()
    energy = EnergyAccount()
    cfg = SpmDmaNetworkConfig(kind=kind, link_width_bytes=width, rings=rings)
    shape = NetworkShape([banks_per_slot] * n_slots, cfg)
    net = SpmDmaNetwork(sim, shape, BandwidthServer(sim, *dma), energy)
    return sim, net, energy


def move(net, src, dst, nbytes):
    """Start one network movement; returns its completion event."""
    sim = net.port.sim
    done = sim.event()
    Route(sim, net.legs(src, dst) + (DONE,), partial(done.trigger, nbytes), nbytes)
    return done


def run_transfer(sim, event):
    """Completion time of a network movement."""
    done = []
    event.add_callback(lambda e: done.append(sim.now))
    sim.run()
    return done[0]


def run_all(sim, events):
    """Completion times of movements started together, in issue order."""
    done = [None] * len(events)
    for index, event in enumerate(events):
        event.add_callback(lambda e, i=index: done.__setitem__(i, sim.now))
    sim.run()
    return done


class TestBuildNetwork:
    def test_dispatch(self):
        _, proxy, _ = make(NetworkKind.PROXY_CROSSBAR)
        _, chain, _ = make(NetworkKind.CHAINING_CROSSBAR)
        _, ring, _ = make(NetworkKind.RING)
        # Only the chaining crossbar has parallel chaining paths; only a
        # ring has routers and links.
        assert proxy.paths is None and ring.paths is None
        assert chain.paths is not None
        assert ring.shape.router is not None and ring.shape.link is not None
        assert proxy.shape.router is None and chain.shape.router is None
        assert proxy.shape.latency == 2.0 and ring.shape.latency == 0.0

    def test_empty_slots_rejected(self):
        with pytest.raises(ConfigError):
            NetworkShape([], SpmDmaNetworkConfig())


class TestProxyCrossbar:
    def test_transfer_time(self):
        sim, net, _ = make(NetworkKind.PROXY_CROSSBAR, width=32)
        # 64 bytes at 32 B/cy = 2 cycles + 2 latency.
        assert run_transfer(sim, move(net, None, 0, 64)) == pytest.approx(4.0)

    def test_chaining_costs_two_traversals(self):
        sim, net, _ = make(NetworkKind.PROXY_CROSSBAR, width=32)
        t_mem = run_transfer(sim, move(net, None, 0, 640))
        sim2, net2, _ = make(NetworkKind.PROXY_CROSSBAR, width=32)
        t_chain = run_transfer(sim2, move(net2, 0, 1, 640))
        assert t_chain == pytest.approx(2 * t_mem)

    def test_chaining_stores_and_forwards_through_the_dma(self):
        sim, net, _ = make(NetworkKind.PROXY_CROSSBAR, width=32, dma=(32.0, 1.0))
        # Traverse (20 + 2), the DMA engine (20 + 1), traverse (20 + 2).
        assert run_transfer(sim, move(net, 0, 1, 640)) == pytest.approx(65.0)

    def test_all_traffic_serializes_on_dma_port(self):
        sim, net, _ = make(NetworkKind.PROXY_CROSSBAR, width=32)
        done = run_all(sim, [move(net, None, 0, 320), move(net, 1, None, 320)])
        # Each occupies 10 cycles; second waits for the first.
        assert done == [12.0, 22.0]

    def test_energy_charged(self):
        sim, net, energy = make(NetworkKind.PROXY_CROSSBAR)
        run_transfer(sim, move(net, None, 0, 64))
        assert energy.dynamic_nj.get("island_net", 0) > 0

    def test_bad_slot_rejected(self):
        sim, net, _ = make(NetworkKind.PROXY_CROSSBAR, n_slots=2)
        with pytest.raises(ConfigError):
            net.legs(None, 5)


class TestChainingCrossbar:
    def test_chain_is_direct_single_traversal(self):
        """Unlike the proxy design, chaining does not double the bytes."""
        simA, proxy, _ = make(NetworkKind.PROXY_CROSSBAR, width=32)
        simB, chain, _ = make(NetworkKind.CHAINING_CROSSBAR, width=32)
        t_proxy = run_transfer(simA, move(proxy, 0, 1, 3200))
        t_chain = run_transfer(simB, move(chain, 0, 1, 3200))
        assert t_chain < t_proxy

    def test_large_array_latency_grows(self):
        _, small, _ = make(NetworkKind.CHAINING_CROSSBAR, n_slots=2, banks_per_slot=2)
        _, big, _ = make(NetworkKind.CHAINING_CROSSBAR, n_slots=40, banks_per_slot=4)
        assert big.shape.latency > small.shape.latency

    def test_chain_and_memory_paths_independent(self):
        sim, net, _ = make(NetworkKind.CHAINING_CROSSBAR, width=32)
        mem, chain = run_all(
            sim, [move(net, None, 0, 3200), move(net, 1, 2, 3200)]
        )
        done = {"mem": mem, "chain": chain}
        # The chain path has 4x parallel width, so finishes much earlier
        # than if it had queued behind the memory transfer.
        assert done["chain"] < done["mem"]

    def test_quadratic_area_blowup(self):
        """Section 5.2: the chaining crossbar area explodes with island size."""
        _, small, _ = make(NetworkKind.CHAINING_CROSSBAR, n_slots=5)
        _, big, _ = make(NetworkKind.CHAINING_CROSSBAR, n_slots=40)
        # 8x the slots -> ~64x the area.
        assert big.shape.area_mm2 / small.shape.area_mm2 > 50


class TestRing:
    def test_hop_count_unidirectional(self):
        _, ring, _ = make(NetworkKind.RING, n_slots=4)  # 5 nodes
        assert ring.shape.hops(0, 1) == 1
        assert ring.shape.hops(1, 0) == 4  # must go all the way round
        assert ring.shape.hops(3, 3) == 0

    def test_transfer_includes_hop_latency(self):
        sim, ring, _ = make(NetworkKind.RING, n_slots=4, width=32)
        # dma (node 0) -> slot 2 (node 3): 3 hops.
        # effective bytes = 320 * 3/5 = 192 -> 6 cycles at 32 B/cy; +3 hop cycles.
        assert run_transfer(sim, move(ring, None, 2, 320)) == pytest.approx(9.0)

    def test_zero_hop_transfer_immediate(self):
        sim, ring, _ = make(NetworkKind.RING, n_slots=4)
        t = run_transfer(sim, move(ring, 1, 1, 1000))  # node 2 -> node 2
        assert t == 0.0

    def test_spatial_reuse_parallelism(self):
        """Disjoint short transfers beat a serialized channel."""
        sim, ring, _ = make(NetworkKind.RING, n_slots=8, width=32)
        # Two 1-hop transfers on opposite sides of the ring.
        done = run_all(sim, [move(ring, 0, 1, 3200), move(ring, 4, 5, 3200)])
        # Each consumes 1/9 of ring capacity per byte: occupancy ~ 11.1 cy.
        # Serialized they would take ~22; fluid sharing finishes ~12.1/23.2?
        # The fluid model serializes server occupancy, so the key assertion
        # is that total time is far below two full serialized transfers
        # (2 * 100 cycles at 32 B/cy).
        assert max(done) < 100

    def test_more_rings_more_bandwidth(self):
        sim1, r1, _ = make(NetworkKind.RING, n_slots=4, width=32, rings=1)
        sim3, r3, _ = make(NetworkKind.RING, n_slots=4, width=32, rings=3)
        t1 = run_transfer(sim1, move(r1, None, 3, 32000))
        t3 = run_transfer(sim3, move(r3, None, 3, 32000))
        assert t3 < t1

    def test_2ring_16B_matches_1ring_32B_bandwidth(self):
        """Section 5.3: 2-ring 16-byte performs almost identically to
        1-ring 32-byte (equal aggregate bandwidth)."""
        sim2, r2, _ = make(NetworkKind.RING, n_slots=6, width=16, rings=2)
        sim1, r1, _ = make(NetworkKind.RING, n_slots=6, width=32, rings=1)
        t2 = run_transfer(sim2, move(r2, None, 3, 64000))
        t1 = run_transfer(sim1, move(r1, None, 3, 64000))
        assert t2 == pytest.approx(t1, rel=0.01)

    def test_ring_area_scales_with_rings_and_width(self):
        _, r1, _ = make(NetworkKind.RING, width=16, rings=1)
        _, r2, _ = make(NetworkKind.RING, width=32, rings=1)
        _, r3, _ = make(NetworkKind.RING, width=16, rings=3)
        assert r2.shape.area_mm2 > r1.shape.area_mm2
        assert r3.shape.area_mm2 > r1.shape.area_mm2

    def test_ring_energy_scales_with_hops(self):
        sim, ring, energy = make(NetworkKind.RING, n_slots=8)
        run_transfer(sim, move(ring, None, 0, 100))  # 1 hop
        e1 = energy.dynamic_nj["island_net"]
        sim2, ring2, energy2 = make(NetworkKind.RING, n_slots=8)
        run_transfer(sim2, move(ring2, None, 7, 100))  # 8 hops
        e8 = energy2.dynamic_nj["island_net"]
        assert e8 == pytest.approx(8 * e1)


class TestAreaOrdering:
    def test_paper_area_ordering_for_large_islands(self):
        """chaining crossbar >> proxy crossbar > rings, at 40 ABBs."""
        mix_banks = [4] * 26 + [2] * 11 + [4] * 3  # ~40-ABB island
        proxy = NetworkShape(mix_banks, SpmDmaNetworkConfig(NetworkKind.PROXY_CROSSBAR))
        chain = NetworkShape(
            mix_banks, SpmDmaNetworkConfig(NetworkKind.CHAINING_CROSSBAR)
        )
        ring = NetworkShape(mix_banks, SpmDmaNetworkConfig(NetworkKind.RING, rings=2))
        assert chain.area_mm2 > 10 * proxy.area_mm2
        assert proxy.area_mm2 > ring.area_mm2
