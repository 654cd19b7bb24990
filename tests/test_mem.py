"""Tests for memory controllers and the memory system."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigError
from repro.mem import MemoryController, MemorySystem
from repro.mem.controller import (
    PAPER_MC_BANDWIDTH_GBPS,
    PAPER_MC_COUNT,
    PAPER_MC_LATENCY_CYCLES,
)


def run_event(sim, event):
    done = []
    event.add_callback(lambda e: done.append(sim.now))
    sim.run()
    return done[0]


class TestMemoryController:
    def test_paper_constants(self):
        assert PAPER_MC_LATENCY_CYCLES == 180.0
        assert PAPER_MC_BANDWIDTH_GBPS == 10.0
        assert PAPER_MC_COUNT == 4

    def test_access_latency_and_bandwidth(self):
        sim = Simulator()
        mc = MemoryController(sim, 0)
        # 10 GB/s @ 1 GHz = 10 B/cycle; 100 B -> 10 cycles + 180 latency.
        assert run_event(sim, mc.access(100)) == pytest.approx(190.0)

    def test_accesses_queue(self):
        sim = Simulator()
        mc = MemoryController(sim, 0)
        done = []
        mc.access(1000).add_callback(lambda e: done.append(sim.now))
        mc.access(1000).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(280.0), pytest.approx(380.0)]

    def test_dram_energy_charged(self):
        sim = Simulator()
        mc = MemoryController(sim, 0)
        run_event(sim, mc.access(1000))
        assert mc.energy.dynamic_nj["dram"] == pytest.approx(50.0)

    def test_invalid_config_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            MemoryController(sim, 0, bandwidth_gbps=0)
        with pytest.raises(ConfigError):
            MemoryController(sim, 0, latency_cycles=-1)


class TestMemorySystem:
    def test_paper_default_four_controllers(self):
        sim = Simulator()
        mem = MemorySystem(sim)
        assert len(mem.controllers) == 4

    def test_stream_hash_interleaving(self):
        sim = Simulator()
        mem = MemorySystem(sim, n_controllers=4)
        assert mem.controller_for(0).index == 0
        assert mem.controller_for(5).index == 1
        assert mem.controller_for(7).index == 3

    def test_round_robin_when_no_stream(self):
        sim = Simulator()
        mem = MemorySystem(sim, n_controllers=2)
        assert mem.controller_for().index == 0
        assert mem.controller_for().index == 1
        assert mem.controller_for().index == 0

    def test_parallel_channels_beat_single(self):
        simA = Simulator()
        memA = MemorySystem(simA, n_controllers=4)
        for stream in range(4):
            memA.access(4000, stream)
        simA.run()
        simB = Simulator()
        memB = MemorySystem(simB, n_controllers=1)
        for _ in range(4):
            memB.access(4000, 0)
        simB.run()
        assert simA.now < simB.now

    def test_total_bytes(self):
        sim = Simulator()
        mem = MemorySystem(sim)
        mem.access(100, 0)
        mem.access(200, 1)
        sim.run()
        assert mem.total_bytes() == 300

    def test_zero_controllers_rejected(self):
        with pytest.raises(ConfigError):
            MemorySystem(Simulator(), n_controllers=0)

