"""Tests for mesh topology and NoC timing."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.engine import Route, Simulator
from repro.engine.route import DONE
from repro.errors import ConfigError
from repro.noc import MeshNoC, MeshTopology, NodeKind


def send(noc, src, dst, nbytes):
    """Start one mesh crossing as a route over its leg; returns its
    completion event."""
    done = noc.sim.event()
    legs = (noc.transfer(src, dst, nbytes), DONE)
    Route(noc.sim, legs, partial(done.trigger, nbytes), nbytes)
    return done


class TestTopology:
    def test_all_components_placed(self):
        topo = MeshTopology(n_islands=6, n_cores=4, n_l2_banks=8, n_memory_controllers=4)
        assert len(topo.nodes_of_kind(NodeKind.ISLAND)) == 6
        assert len(topo.nodes_of_kind(NodeKind.CORE)) == 4
        assert len(topo.nodes_of_kind(NodeKind.L2_BANK)) == 8
        assert len(topo.nodes_of_kind(NodeKind.MEMORY_CONTROLLER)) == 4

    def test_no_two_nodes_share_a_stop(self):
        topo = MeshTopology(n_islands=24)
        coords = [(n.x, n.y) for n in topo.nodes]
        assert len(set(coords)) == len(coords)

    def test_memory_controllers_on_edge(self):
        topo = MeshTopology(n_islands=12)
        for mc in topo.nodes_of_kind(NodeKind.MEMORY_CONTROLLER):
            assert (
                mc.x in (0, topo.width - 1) or mc.y in (0, topo.height - 1)
            )

    @pytest.mark.parametrize("n_islands", [3, 6, 12, 24])
    def test_paper_island_counts_fit(self, n_islands):
        topo = MeshTopology(n_islands=n_islands)
        assert len(topo.nodes_of_kind(NodeKind.ISLAND)) == n_islands

    def test_lookup_by_kind_and_index(self):
        topo = MeshTopology(n_islands=3)
        node = topo.island(2)
        assert node.kind is NodeKind.ISLAND
        assert node.index == 2
        assert topo.memory_controller(0).kind is NodeKind.MEMORY_CONTROLLER

    def test_unknown_node_rejected(self):
        topo = MeshTopology(n_islands=3)
        with pytest.raises(ConfigError):
            topo.island(99)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            MeshTopology(n_islands=0)
        with pytest.raises(ConfigError):
            MeshTopology(n_islands=1, n_memory_controllers=0)

    def test_hop_distance_is_manhattan(self):
        topo = MeshTopology(n_islands=6)
        a, b = topo.nodes[0], topo.nodes[-1]
        assert topo.hop_distance(a, b) == abs(a.x - b.x) + abs(a.y - b.y)


class TestMeshNoC:
    def make(self, n_islands=4, link_bw=16.0):
        sim = Simulator()
        topo = MeshTopology(n_islands=n_islands)
        noc = MeshNoC(sim, topo, {}, link_bytes_per_cycle=link_bw)
        return sim, topo, noc

    def run_event(self, sim, event):
        done = []
        event.add_callback(lambda e: done.append(sim.now))
        sim.run()
        return done[0]

    def test_xy_route_length(self):
        sim, topo, noc = self.make()
        a = topo.island(0)
        b = topo.memory_controller(0)
        path = noc.route(a, b)
        assert len(path) == topo.hop_distance(a, b)

    def test_route_walks_x_then_y(self):
        sim, topo, noc = self.make()
        a, b = topo.island(0), topo.island(3)
        path = noc.route(a, b)
        seen_y_move = False
        for (x0, y0), (x1, y1) in path:
            if y0 != y1:
                seen_y_move = True
            if x0 != x1:
                assert not seen_y_move, "X moves must precede Y moves"

    def test_transfer_latency_scales_with_hops(self):
        sim, topo, noc = self.make()
        islands = topo.nodes_of_kind(NodeKind.ISLAND)
        near = min(islands, key=lambda n: topo.hop_distance(topo.island(0), n) or 99)
        far = max(islands, key=lambda n: topo.hop_distance(topo.island(0), n))
        t_far = self.run_event(sim, send(noc, topo.island(0), far, 64))
        sim2, topo2, noc2 = self.make()
        t_near = self.run_event(
            sim2, send(noc2, topo2.island(0), topo2.island(near.index), 64)
        )
        assert t_far > t_near

    def test_zero_hop_transfer_immediate(self):
        sim, topo, noc = self.make()
        node = topo.island(0)
        t = self.run_event(sim, send(noc, node, node, 1000))
        assert t == 0.0

    def test_contended_link_serializes(self):
        sim, topo, noc = self.make()
        src = topo.island(0)
        dst_node = topo.island(1)
        done = []
        send(noc, src, dst_node, 1600).add_callback(lambda e: done.append(sim.now))
        send(noc, src, dst_node, 1600).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done[1] >= done[0] + 1600 / 16.0 - 1e-9

    def test_energy_charged_per_byte_hop(self):
        sim, topo, noc = self.make()
        self.run_event(sim, send(noc, topo.island(0), topo.memory_controller(0), 100))
        assert noc.energy.dynamic_nj["noc"] > 0

    def test_utilization_metrics(self):
        sim, topo, noc = self.make()
        self.run_event(sim, send(noc, topo.island(0), topo.island(1), 1600))
        assert 0 < noc.max_link_utilization(sim.now) <= 1.0

    def test_negative_size_rejected(self):
        sim, topo, noc = self.make()
        with pytest.raises(ConfigError):
            noc.transfer(topo.island(0), topo.island(1), -1)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_nan_and_infinite_sizes_rejected(self, size):
        sim, topo, noc = self.make()
        with pytest.raises(ConfigError, match="finite and non-negative"):
            noc.transfer(topo.island(0), topo.island(1), size)

    @given(st.integers(1, 20), st.integers(1, 20))
    def test_route_always_reaches_destination(self, i, j):
        topo = MeshTopology(n_islands=24)
        islands = topo.nodes_of_kind(NodeKind.ISLAND)
        a, b = islands[i % 24], islands[j % 24]
        path = MeshNoC.route(a, b)
        pos = (a.x, a.y)
        for (src, dst) in path:
            assert src == pos
            pos = dst
        assert pos == (b.x, b.y)
