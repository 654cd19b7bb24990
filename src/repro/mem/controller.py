"""Memory controllers.

Section 4 configures 4 controllers with an average 180-cycle latency at
10 GB/s each.  At the 1 GHz uncore clock that is 10 bytes/cycle of
sustained bandwidth per controller.  Accesses queue FIFO per controller;
addresses are spread across controllers by a deterministic hash so that
independent tasks load all channels uniformly.
"""

from __future__ import annotations

import typing

from repro.engine import BandwidthServer, Event, Simulator
from repro.engine.trace import Tracer, size_label
from repro.errors import ConfigError
from repro.mem.dram import DRAM_ENERGY_PJ_PER_BYTE
from repro.power.aggregate import EnergyAccount
from repro.units import ACCEL_CLOCK, gbps_to_bytes_per_cycle

#: Paper value: average access latency of a controller, cycles.
PAPER_MC_LATENCY_CYCLES = 180.0

#: Paper value: sustained bandwidth per controller, GB/s.
PAPER_MC_BANDWIDTH_GBPS = 10.0

#: Paper value: number of controllers in the evaluated system.
PAPER_MC_COUNT = 4


class MemoryController:
    """One memory channel: FIFO service at fixed bandwidth and latency."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        bandwidth_gbps: float = PAPER_MC_BANDWIDTH_GBPS,
        latency_cycles: float = PAPER_MC_LATENCY_CYCLES,
        energy: typing.Optional[EnergyAccount] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ConfigError("memory bandwidth must be positive")
        if latency_cycles < 0:
            raise ConfigError("memory latency must be non-negative")
        self.index = index
        self.energy = energy if energy is not None else EnergyAccount()
        self.tracer = tracer
        self._span_actor = f"mem.mc{index}"
        self._channel = BandwidthServer(
            sim,
            bytes_per_cycle=gbps_to_bytes_per_cycle(bandwidth_gbps, ACCEL_CLOCK),
            latency=latency_cycles,
            name=f"mc{index}",
        )

    def access(self, nbytes: float, ref: str = "") -> Event:
        """Read or write ``nbytes``; the event fires when data is served."""
        return self._channel.sim.at(self.access_fast(nbytes, ref), nbytes)

    def access_fast(self, nbytes: float, ref: str = "") -> float:
        """Read or write ``nbytes``; returns the time data is served.

        The body of both access paths.  The span is recorded at issue,
        ending at the channel's completion time.
        """
        self.energy.charge("dram", DRAM_ENERGY_PJ_PER_BYTE * nbytes * 1e-3)
        channel = self._channel
        start = channel.sim.now
        done = channel.reserve(nbytes)
        tracer = self.tracer
        if tracer is not None:
            tracer.record(start, done, self._span_actor, "mem", size_label(nbytes), ref)
        return done

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of the channel."""
        return self._channel.utilization(elapsed)

    @property
    def total_bytes(self) -> float:
        """Bytes served so far."""
        return self._channel.total_bytes


class MemorySystem:
    """All memory controllers plus the address-interleaving policy."""

    def __init__(
        self,
        sim: Simulator,
        n_controllers: int = PAPER_MC_COUNT,
        bandwidth_gbps: float = PAPER_MC_BANDWIDTH_GBPS,
        latency_cycles: float = PAPER_MC_LATENCY_CYCLES,
        energy: typing.Optional[EnergyAccount] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        if n_controllers < 1:
            raise ConfigError("need at least one memory controller")
        self.energy = energy if energy is not None else EnergyAccount()
        self.controllers = [
            MemoryController(
                sim, i, bandwidth_gbps, latency_cycles, self.energy, tracer
            )
            for i in range(n_controllers)
        ]
        self._next_rr = 0

    def controller_for(self, stream_id: typing.Optional[int] = None) -> MemoryController:
        """Pick a controller: by stream hash, or round-robin when None."""
        if stream_id is None:
            index = self._next_rr
            self._next_rr = (self._next_rr + 1) % len(self.controllers)
        else:
            index = stream_id % len(self.controllers)
        return self.controllers[index]

    def access(
        self,
        nbytes: float,
        stream_id: typing.Optional[int] = None,
        ref: str = "",
    ) -> Event:
        """Serve an access on the interleave-selected controller."""
        return self.controller_for(stream_id).access(nbytes, ref)

    def access_fast(
        self,
        nbytes: float,
        stream_id: typing.Optional[int] = None,
        ref: str = "",
    ) -> float:
        """Like :meth:`access`, but returns the completion time (for
        routes, which schedule their own wake-up)."""
        return self.controller_for(stream_id).access_fast(nbytes, ref)

    def total_bytes(self) -> float:
        """Bytes served across all controllers."""
        return sum(mc.total_bytes for mc in self.controllers)
