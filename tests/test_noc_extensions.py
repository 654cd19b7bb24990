"""Tests for NoC packet segmentation and topology rendering."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigError
from repro.noc import MeshNoC, MeshTopology, NodeKind
from repro.noc.diagram import render_topology
from repro.noc.mesh import PACKET_HEADER_BYTES
from tests.test_noc import send


def run_transfer(sim, event):
    done = []
    event.add_callback(lambda e: done.append(sim.now))
    sim.run()
    return done[0]


class TestSegmentation:
    def make(self, segment=None):
        sim = Simulator()
        topo = MeshTopology(n_islands=4)
        noc = MeshNoC(sim, topo, {}, segment_bytes=segment)
        return sim, topo, noc

    def test_segmented_transfer_pays_header_overhead(self):
        simA, topoA, fluid = self.make(segment=None)
        simB, topoB, packets = self.make(segment=64.0)
        a, b = topoA.island(0), topoA.island(1)
        t_fluid = run_transfer(simA, send(fluid, a, b, 1024))
        t_packets = run_transfer(
            simB, send(packets, topoB.island(0), topoB.island(1), 1024)
        )
        assert t_packets > t_fluid

    def test_packet_count(self):
        sim, topo, noc = self.make(segment=64.0)
        payload = 64.0 - PACKET_HEADER_BYTES
        run_transfer(sim, send(noc, topo.island(0), topo.island(1), 512))
        import math

        assert noc.total_packets == math.ceil(512 / payload)

    def test_small_messages_waste_more(self):
        """Section 5.3's effect: packetization overhead is relatively
        larger for small messages."""
        sim, topo, noc = self.make(segment=64.0)
        src, dst = topo.island(0), topo.island(1)
        t_small = run_transfer(sim, send(noc, src, dst, 32))
        sim2, topo2, noc2 = self.make(segment=None)
        t_small_fluid = run_transfer(
            sim2, send(noc2, topo2.island(0), topo2.island(1), 32)
        )
        overhead_small = t_small / t_small_fluid
        assert overhead_small > 1.0

    def test_segment_must_exceed_header(self):
        sim = Simulator()
        topo = MeshTopology(n_islands=2)
        with pytest.raises(ConfigError):
            MeshNoC(sim, topo, {}, segment_bytes=8.0)

    def test_fluid_mode_counts_no_packets(self):
        sim, topo, noc = self.make(segment=None)
        run_transfer(sim, send(noc, topo.island(0), topo.island(1), 512))
        assert noc.total_packets == 0


class TestDiagram:
    def test_renders_all_components(self):
        topo = MeshTopology(n_islands=6)
        art = render_topology(topo)
        assert "M" in art and "C" in art and "L" in art and "I" in art
        assert "legend" in art

    def test_grid_dimensions(self):
        topo = MeshTopology(n_islands=6)
        rows = render_topology(topo).splitlines()
        # header + height rows + legend
        assert len(rows) == topo.height + 2

    def test_indices_mode(self):
        topo = MeshTopology(n_islands=3)
        art = render_topology(topo, show_indices=True)
        assert "I00" in art
        assert "M00" in art

    def test_counts_in_header(self):
        art = render_topology(MeshTopology(n_islands=24))
        assert "24 islands" in art
