"""Property-based tests on cross-cutting system invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.abb import ABBFlowGraph, PAPER_ABB_MIX, TilePlan, standard_library
from repro.core import TileScheduler
from repro.engine import BandwidthServer, Simulator
from repro.island import NetworkKind, NetworkShape, SpmDmaNetworkConfig
from repro.sim import SystemConfig, SystemModel, distribute_mix


class TestDistributeMixProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["poly", "div", "sqrt", "pow", "sum"]),
            st.integers(0, 200),
            min_size=1,
        ),
        st.integers(1, 30),
    )
    def test_totals_preserved_and_balanced(self, mix, n_islands):
        total = sum(mix.values())
        if total < n_islands:
            return  # would leave empty islands; rejected by the function
        try:
            per_island = distribute_mix(mix, n_islands)
        except Exception:
            return  # empty-island configurations are allowed to reject
        # Conservation per type.
        for type_name, count in mix.items():
            assert sum(m.get(type_name, 0) for m in per_island) == count
        # Per-type balance: counts differ by at most one.
        for type_name in mix:
            counts = [m.get(type_name, 0) for m in per_island]
            assert max(counts) - min(counts) <= 1

    @given(st.integers(1, 24))
    def test_paper_mix_island_sizes_balanced(self, n_islands):
        if 120 % n_islands:
            return
        per_island = distribute_mix(PAPER_ABB_MIX, n_islands)
        sizes = [sum(m.values()) for m in per_island]
        assert max(sizes) - min(sizes) <= 1


class TestBandwidthServerProperties:
    @given(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=30))
    def test_busy_time_equals_total_service(self, sizes):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_cycle=4.0)
        for nbytes in sizes:
            server.transfer(nbytes)
        sim.run()
        assert server.busy_cycles == pytest.approx(sum(sizes) / 4.0)
        assert server.total_bytes == pytest.approx(sum(sizes))

    @given(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=30))
    def test_completion_no_earlier_than_serialized_bound(self, sizes):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_cycle=2.0, latency=3.0)
        last = []
        for nbytes in sizes:
            server.transfer(nbytes).add_callback(lambda e: last.append(sim.now))
        sim.run()
        serialized = sum(sizes) / 2.0
        assert max(last) == pytest.approx(serialized + 3.0)


class TestRingProperties:
    @given(st.integers(2, 40), st.integers(0, 60), st.integers(0, 60))
    def test_hop_count_bounds(self, n_slots, a, b):
        ring = NetworkShape([2] * n_slots, SpmDmaNetworkConfig(NetworkKind.RING, 32, 1))
        src = a % ring.n_nodes
        dst = b % ring.n_nodes
        hops = ring.hops(src, dst)
        assert 0 <= hops < ring.n_nodes
        if src == dst:
            assert hops == 0
        # Going around: forward + backward distances sum to ring size.
        if src != dst:
            assert hops + ring.hops(dst, src) == ring.n_nodes


class TestSchedulerConservation:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 6),  # tasks per graph
        st.integers(0, 100),  # edge seed
        st.integers(1, 3),  # tiles
    )
    def test_all_tasks_execute_exactly_once_per_tile(self, n_tasks, edge_seed, tiles):
        lib = standard_library()
        types = ["poly", "div", "sqrt", "pow", "sum"]
        graph = ABBFlowGraph("random")
        for i in range(n_tasks):
            graph.add_task(f"t{i}", types[(i + edge_seed) % 5], 8)
        # Deterministic pseudo-random forward edges.
        state = edge_seed
        for i in range(1, n_tasks):
            state = (state * 1103515245 + 12345) % (2**31)
            if state % 2:
                graph.add_edge(f"t{state % i}", f"t{i}")
        graph.validate(lib)

        system = SystemModel(SystemConfig(n_islands=3))
        plan = TilePlan(graph, system.library)
        for tile in range(tiles):
            TileScheduler(system, plan, tile).run()
        system.sim.run()

        # Every task granted once and released once, per tile.
        abc = system.abc
        assert abc.total_grants == abc.service_cycles.count == n_tasks * tiles
        # Every slot freed at the end; no leaked allocations.
        for island in system.islands:
            assert island.busy_fraction() == 0
            assert all(island.slot_usable(s) for s in range(island.n_slots))


class TestEnergyMonotonicity:
    @given(st.integers(1, 4))
    @settings(max_examples=6, deadline=None)
    def test_energy_grows_with_tiles(self, tiles):
        from repro.sim import run_workload
        from repro.workloads import synthetic_workload

        small = synthetic_workload(depth=2, width=2, tiles=tiles)
        big = synthetic_workload(depth=2, width=2, tiles=tiles + 1)
        cfg = SystemConfig(n_islands=3)
        assert run_workload(cfg, big).energy_nj > run_workload(cfg, small).energy_nj
