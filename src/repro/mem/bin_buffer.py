"""BiN: Buffer-in-NUCA allocation for accelerators.

The paper's Section 7 points at the CDSC memory-system work, BiN [7]:
instead of giving every accelerator a fixed private buffer, buffer space
is allocated *dynamically in the shared NUCA L2 banks*, sized to each
accelerator's request and placed in the banks closest to it.  Data with
reuse is then served at L2 latency/bandwidth instead of going to DRAM.

This module implements the allocator (distance-aware, byte-granular,
with FIFO waiting when banks are full) and the access-path timing model
used by the ``test_ext_bin_buffers`` bench to quantify the benefit.
"""

from __future__ import annotations

import collections
import typing
from dataclasses import dataclass
from functools import partial

from repro.engine import BandwidthServer, Simulator
from repro.errors import AllocationError, CapacityError, ConfigError
from repro.mem.controller import MemorySystem
from repro.noc.topology import MeshTopology, NodeKind

#: L2 bank access latency, cycles.
L2_HIT_LATENCY = 20.0

#: L2 bank bandwidth, bytes/cycle.
L2_BANK_BYTES_PER_CYCLE = 32.0

#: Default capacity one L2 bank can donate to accelerator buffers.
DEFAULT_BANK_BUFFER_BYTES = 256 * 1024

#: Extra mesh latency per hop between the island and its buffer bank.
HOP_LATENCY_CYCLES = 2.0


@dataclass
class BufferGrant:
    """A slice of NUCA L2 capacity granted to one accelerator.

    Attributes:
        island_index: The requesting island.
        nbytes: Granted capacity.
        banks: ``(bank_index, bytes)`` slices backing the buffer, in
            distance order.
        hops: Mesh distance to the farthest backing bank.
    """

    island_index: int
    nbytes: float
    banks: list
    hops: int
    released: bool = False


class BufferInNUCA:
    """Distance-aware dynamic buffer allocation in shared L2 banks."""

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        memory: MemorySystem,
        bank_buffer_bytes: int = DEFAULT_BANK_BUFFER_BYTES,
    ) -> None:
        if bank_buffer_bytes <= 0:
            raise ConfigError("bank buffer capacity must be positive")
        self.sim = sim
        self.topology = topology
        self.memory = memory
        self.bank_nodes = topology.nodes_of_kind(NodeKind.L2_BANK)
        if not self.bank_nodes:
            raise ConfigError("BiN needs at least one L2 bank on the mesh")
        self.bank_capacity = bank_buffer_bytes
        self._free = {node.index: float(bank_buffer_bytes) for node in self.bank_nodes}
        self._ports = {
            node.index: BandwidthServer(
                sim,
                bytes_per_cycle=L2_BANK_BYTES_PER_CYCLE,
                latency=L2_HIT_LATENCY,
                name=f"bin.bank{node.index}",
            )
            for node in self.bank_nodes
        }
        self._waiters: collections.deque = collections.deque()
        self.total_grants = 0
        self.total_denied_waits = 0

    # ------------------------------------------------------------ capacity
    def free_bytes(self) -> float:
        """Unallocated buffer capacity across all banks."""
        return sum(self._free.values())

    def _banks_by_distance(self, island_index: int) -> list:
        island = self.topology.island(island_index)
        return sorted(
            self.bank_nodes,
            key=lambda node: (self.topology.hop_distance(island, node), node.index),
        )

    def _try_allocate(self, island_index: int, nbytes: float):
        if nbytes > self.free_bytes():
            return None
        slices = []
        remaining = nbytes
        hops = 0
        island = self.topology.island(island_index)
        for node in self._banks_by_distance(island_index):
            if remaining <= 0:
                break
            take = min(remaining, self._free[node.index])
            if take > 0:
                slices.append((node.index, take))
                self._free[node.index] -= take
                remaining -= take
                hops = max(hops, self.topology.hop_distance(island, node))
        return BufferGrant(island_index, nbytes, slices, hops)

    # -------------------------------------------------------------- public
    def request(self, island_index: int, nbytes: float, then: typing.Callable) -> None:
        """Request ``nbytes`` of buffer; ``then(grant)`` gets the
        :class:`BufferGrant` from one heap entry at the grant.

        Requests exceeding total BiN capacity are rejected immediately;
        requests exceeding currently-free capacity wait FIFO.
        """
        if nbytes <= 0:
            raise ConfigError("buffer request must be positive")
        if nbytes > self.bank_capacity * len(self.bank_nodes):
            raise CapacityError(
                f"buffer request of {nbytes:.0f} B exceeds total BiN "
                f"capacity {self.bank_capacity * len(self.bank_nodes):.0f} B"
            )
        grant = self._try_allocate(island_index, nbytes)
        if grant is not None:
            self.total_grants += 1
            self.sim.schedule(self.sim.now, partial(then, grant))
        else:
            self.total_denied_waits += 1
            self._waiters.append((then, island_index, nbytes))

    def release(self, grant: BufferGrant) -> None:
        """Return a buffer's capacity and wake eligible waiters."""
        if grant.released:
            raise AllocationError("buffer grant already released")
        grant.released = True
        for bank_index, nbytes in grant.banks:
            self._free[bank_index] += nbytes
            if self._free[bank_index] > self.bank_capacity + 1e-9:
                raise AllocationError(f"bank {bank_index} over-freed")
        progressed = True
        while progressed and self._waiters:
            progressed = False
            then, island_index, nbytes = self._waiters[0]
            granted = self._try_allocate(island_index, nbytes)
            if granted is not None:
                self._waiters.popleft()
                self.total_grants += 1
                self.sim.schedule(self.sim.now, partial(then, granted))
                progressed = True

    # --------------------------------------------------------------- timing
    def access(self, grant: BufferGrant, nbytes: float) -> float:
        """Stream ``nbytes`` through the buffer's backing banks; returns
        the completion time.

        Bytes split across the grant's bank slices proportionally; the
        access completes when the slowest bank has drained, plus the
        mesh-hop latency to the farthest bank.
        """
        if grant.released:
            raise AllocationError("access to a released buffer")
        if nbytes < 0:
            raise ConfigError("access size must be non-negative")
        drained = self.sim.now
        for bank_index, share_bytes in grant.banks:
            share = nbytes * (share_bytes / grant.nbytes)
            drained = max(drained, self._ports[bank_index].reserve(share))
        return drained + HOP_LATENCY_CYCLES * grant.hops

    def dram_access(self, nbytes: float, stream_id: int = 0) -> float:
        """The fallback path: the same bytes served from DRAM; returns
        the completion time."""
        return self.memory.access_fast(nbytes, stream_id)
