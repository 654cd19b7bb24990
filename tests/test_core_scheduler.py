"""Tests for the tile scheduler and virtual accelerators."""

import pytest

from repro.abb import ABBFlowGraph
from repro.core import TileScheduler, VirtualAccelerator
from repro.errors import SimulationError
from repro.sim import SystemConfig, SystemModel
from repro.island import NetworkKind, SpmDmaNetworkConfig


def make_system(n_islands=2, mix=None):
    config = SystemConfig(
        n_islands=n_islands,
        abb_mix=mix or {"poly": 6, "div": 2, "sqrt": 2, "pow": 2, "sum": 2},
    )
    return SystemModel(config)


def chain_graph(lib, n=3, invocations=32):
    g = ABBFlowGraph("chain")
    types = ["poly", "div", "sqrt"]
    for i in range(n):
        g.add_task(f"t{i}", types[i % 3], invocations)
    for i in range(n - 1):
        g.add_edge(f"t{i}", f"t{i+1}")
    g.validate(lib)
    return g


class TestTileScheduler:
    def test_single_task_completes(self):
        system = make_system()
        g = ABBFlowGraph("one")
        g.add_task("a", "poly", 16)
        done = TileScheduler(system, g, tile_id=0).run()
        system.sim.run()
        assert done.triggered
        assert system.sim.now > 0

    def test_chain_completes_and_records_locations(self):
        system = make_system()
        g = chain_graph(system.library)
        sched = TileScheduler(system, g, tile_id=0)
        sched.run()
        system.sim.run()
        assert set(sched.locations) == {"t0", "t1", "t2"}

    def test_dependencies_respected(self):
        """A consumer must start compute after its producer finishes."""
        system = make_system()
        g = chain_graph(system.library, n=2)
        sched = TileScheduler(system, g, tile_id=0)
        done = sched.run()
        system.sim.run()
        assert done.triggered
        # Each task was granted one ABB and released it once.
        abc = system.abc
        assert abc.total_grants == abc.service_cycles.count == 2

    def test_all_abbs_released_at_end(self):
        system = make_system()
        g = chain_graph(system.library, n=3)
        TileScheduler(system, g, tile_id=0).run()
        system.sim.run()
        assert system.abc.total_grants == system.abc.service_cycles.count == 3
        for island in system.islands:
            assert island.busy_fraction() == 0
            assert all(island.slot_usable(s) for s in range(island.n_slots))

    def test_parallel_tiles_share_abbs(self):
        system = make_system(mix={"poly": 2, "div": 1, "sqrt": 1})
        g = chain_graph(system.library, n=3)
        events = [TileScheduler(system, g, tile_id=t).run() for t in range(4)]
        system.sim.run()
        assert all(e.triggered for e in events)

    def test_memory_traffic_accounted(self):
        system = make_system()
        g = chain_graph(system.library)
        TileScheduler(system, g, tile_id=0).run()
        system.sim.run()
        assert system.memory.total_bytes() > 0

    def test_deterministic_across_runs(self):
        def run_once():
            system = make_system()
            g = chain_graph(system.library, n=3)
            TileScheduler(system, g, tile_id=0).run()
            system.sim.run()
            return system.sim.now

        assert run_once() == run_once()


class TestLocalityPreference:
    def test_chained_consumer_prefers_producer_island(self):
        system = make_system(n_islands=4, mix={"poly": 8, "div": 4, "sqrt": 4})
        g = chain_graph(system.library, n=3)
        sched = TileScheduler(system, g, tile_id=0)
        sched.run()
        system.sim.run()
        islands = {island for island, _ in sched.locations.values()}
        # With free slots everywhere, the whole chain lands on one island.
        assert len(islands) == 1


class TestVirtualAccelerator:
    def test_lifecycle(self):
        system = make_system()
        g = chain_graph(system.library)
        va = VirtualAccelerator(system, g, va_id=1)
        assert not va.is_complete
        va.start()
        system.sim.run()
        assert va.is_complete
        assert va.elapsed_cycles > 0
        assert len(va.mapping) == 3
        assert va.islands_used

    def test_double_start_rejected(self):
        system = make_system()
        g = chain_graph(system.library)
        va = VirtualAccelerator(system, g)
        va.start()
        with pytest.raises(SimulationError):
            va.start()

    def test_elapsed_before_completion_rejected(self):
        system = make_system()
        g = chain_graph(system.library)
        va = VirtualAccelerator(system, g)
        with pytest.raises(SimulationError):
            _ = va.elapsed_cycles
